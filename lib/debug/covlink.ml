module Sancov = Eof_cov.Sancov
module Obs = Eof_obs.Obs
module Eof_error = Eof_util.Eof_error

type t = {
  session : Session.t;
  records : Sancov.Layout.counted;
  cmp : Sancov.Layout.counted;
  obs : Obs.t;
  (* The ops after the optional write: continue, the records, the cmp
     ring (in [drain_cmp] only) and the UART. *)
  drain : Rsp.batch_op array;
  drain_cmp : Rsp.batch_op array;
  span : Obs.span_kind;
  c_drains : Obs.Counter.t;
  c_records : Obs.Counter.t;
  c_cmp : Obs.Counter.t;
}

type drained = {
  n_records : int;
  records_raw : string;
  n_cmp : int;
  cmp_raw : string;
  log : string;
}

let counted_op ({ count_addr; data_addr; stride; max_count } : Sancov.Layout.counted) =
  Rsp.B_read_counted { count_addr; data_addr; stride; max_count; reset = true }

let create ~session ~layout =
  let obs = Session.obs session in
  let records = Sancov.Layout.records layout and cmp = Sancov.Layout.cmp_ring layout in
  { session; records; cmp; obs;
    drain = [| Rsp.B_continue; counted_op records; Rsp.B_monitor "uart" |];
    drain_cmp = [| Rsp.B_continue; counted_op records; counted_op cmp; Rsp.B_monitor "uart" |];
    span = Obs.span_kind obs "covlink.exchange";
    c_drains = Obs.Counter.make obs "covlink.drains";
    c_records = Obs.Counter.make obs "covlink.records";
    c_cmp = Obs.Counter.make obs "covlink.cmp" }

let observe_drained t d =
  Obs.Counter.incr t.c_drains;
  Obs.Counter.add t.c_records d.n_records;
  Obs.Counter.add t.c_cmp d.n_cmp;
  if Obs.active t.obs then
    Obs.emit t.obs
      (Obs.Event.Drain
         { records = d.n_records; cmp = d.n_cmp;
           log_bytes = String.length d.log; fused = true })

module Replies = Rsp.Replies

(* A failed drain sub-operation yields its zero result, mirroring the
   per-stage "ignore the error, retry at the next stop" behaviour of the
   per-request drain; the counter was not reset server-side, so nothing
   is lost. *)
let counted r (g : Sancov.Layout.counted) =
  match Replies.next r with
  | Rsp.Sub_counted -> (Int.min (Replies.value r) g.max_count, Replies.data r)
  | _ -> (0, "")

(* The sub-replies after the write's, read in place: the stop, the
   records, the cmp ring when asked for, and the UART text. *)
let continue_replies t r ~want_cmp =
  match Replies.next r with
  | Rsp.Sub_stop ->
    (match Session.decode_stop t.session r with
     | Error e -> Error e
     | Ok stop ->
       let n_records, records_raw = counted r t.records in
       let n_cmp, cmp_raw = if want_cmp then counted r t.cmp else (0, "") in
       let log = match Replies.next r with Rsp.Sub_data -> Replies.data r | _ -> "" in
       Ok (stop, { n_records; records_raw; n_cmp; cmp_raw; log }))
  | Rsp.Sub_error -> Error (Eof_error.remote (Replies.value r))
  | _ -> Error (Eof_error.protocol "covlink: continue sub-reply is not a stop")

let continue_and_drain ?write t ~want_cmp =
  let drain = if want_cmp then t.drain_cmp else t.drain in
  let ops =
    match write with
    | None -> drain
    | Some (addr, data) -> Array.append [| Rsp.B_write { addr; data } |] drain
  in
  let span = Obs.span_begin t.obs t.span in
  let result =
    match Session.batch t.session ops with
    | Error e -> Error e
    | Ok r ->
      (* The session checked one sub-reply per op. A failed write must
         not be silently continued past. *)
      (match write with
       | None -> continue_replies t r ~want_cmp
       | Some _ ->
         (match Replies.next r with
          | Rsp.Sub_ok -> continue_replies t r ~want_cmp
          | Rsp.Sub_error -> Error (Eof_error.remote (Replies.value r))
          | _ -> Error (Eof_error.protocol "covlink: write sub-reply is not an ack")))
  in
  Obs.span_end t.obs span;
  (match result with
   | Ok (_, d) -> observe_drained t d
   | Error _ -> ());
  result
