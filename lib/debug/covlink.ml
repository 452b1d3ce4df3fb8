module Sancov = Eof_cov.Sancov
module Obs = Eof_obs.Obs
module Eof_error = Eof_util.Eof_error

type t = {
  session : Session.t;
  layout : Sancov.Layout.t;
  obs : Obs.t;
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

let create ~session ~layout =
  let obs = Session.obs session in
  { session; layout; obs;
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

let records_op t =
  Rsp.B_read_counted
    {
      count_addr = Sancov.Layout.write_index_addr t.layout;
      data_addr = Sancov.Layout.records_addr t.layout;
      stride = 4;
      max_count = t.layout.Sancov.Layout.capacity_records;
      reset = true;
    }

let cmp_op t =
  Rsp.B_read_counted
    {
      count_addr = Sancov.Layout.cmp_count_addr t.layout;
      data_addr = Sancov.Layout.cmp_ring_addr t.layout;
      stride = 8;
      max_count = Sancov.Layout.cmp_ring_entries;
      reset = true;
    }

let drain_ops t ~want_cmp =
  if want_cmp then [ records_op t; cmp_op t; Rsp.B_monitor "uart" ]
  else [ records_op t; Rsp.B_monitor "uart" ]

(* A failed drain sub-operation yields its zero result, mirroring the
   per-stage "ignore the error, retry at the next stop" behaviour of the
   per-request drain; the counter was not reset server-side, so nothing
   is lost. *)
let counted ~max_count = function
  | Rsp.Br_counted { count; data } -> (min count max_count, data)
  | _ -> (0, "")

let text_of = function Rsp.Br_data s -> s | _ -> ""

let interpret t ~want_cmp replies =
  match (want_cmp, replies) with
  | true, [ rec_r; cmp_r; uart_r ] ->
    let n_records, records_raw =
      counted ~max_count:t.layout.Sancov.Layout.capacity_records rec_r
    in
    let n_cmp, cmp_raw = counted ~max_count:Sancov.Layout.cmp_ring_entries cmp_r in
    Ok { n_records; records_raw; n_cmp; cmp_raw; log = text_of uart_r }
  | false, [ rec_r; uart_r ] ->
    let n_records, records_raw =
      counted ~max_count:t.layout.Sancov.Layout.capacity_records rec_r
    in
    Ok { n_records; records_raw; n_cmp = 0; cmp_raw = ""; log = text_of uart_r }
  | _ -> Error (Eof_error.protocol "covlink: unexpected drain reply shape")

let continue_replies t ~want_cmp = function
  | stop_r :: rest ->
    (match stop_r with
     | Rsp.Br_stop payload ->
       (match Session.decode_stop t.session payload with
        | Error e -> Error e
        | Ok stop ->
          (match interpret t ~want_cmp rest with
           | Error e -> Error e
           | Ok d -> Ok (stop, d)))
     | Rsp.Br_error n -> Error (Eof_error.remote n)
     | _ -> Error (Eof_error.protocol "covlink: continue sub-reply is not a stop"))
  | [] -> Error (Eof_error.protocol "covlink: empty batch reply")

let continue_and_drain ?write t ~want_cmp =
  let prefix =
    match write with
    | None -> []
    | Some (addr, data) -> [ Rsp.B_write { addr; data } ]
  in
  let ops = prefix @ (Rsp.B_continue :: drain_ops t ~want_cmp) in
  let span = Obs.span_begin t.obs "covlink.exchange" in
  let result =
    match Session.batch t.session ops with
    | Error e -> Error e
    | Ok replies ->
      (* Peel the optional write acknowledgement off the front; a failed
         write must not be silently continued past. *)
      (match (write, replies) with
       | Some _, Rsp.Br_error n :: _ -> Error (Eof_error.remote n)
       | Some _, Rsp.Br_ok :: rest -> continue_replies t ~want_cmp rest
       | Some _, _ -> Error (Eof_error.protocol "covlink: write sub-reply is not an ack")
       | None, rest -> continue_replies t ~want_cmp rest)
  in
  Obs.span_end t.obs span;
  (match result with
   | Ok (_, d) -> observe_drained t d
   | Error _ -> ());
  result
