open Eof_hw
module Eof_error = Eof_util.Eof_error

type error = Eof_error.t

type stop = Openocd.stop =
  | Stopped_breakpoint of int
  | Stopped_quantum of int
  | Stopped_fault of int
  | Target_exited

module Obs = Eof_obs.Obs

type t = {
  transport : Transport.t;
  feed : string -> string;  (* the probe's [Openocd.feed], bound at connect *)
  mutable decoder : Rsp.Decoder.t;
  tx : Rsp.Out.t;  (* every command is rendered and framed in here *)
  pc_reg : int;
  endianness : Arch.endianness;
  mutable requests : int;
  mutable features : string;  (* the stub's qSupported reply *)
  mutable attempts : int;  (* per request, including the first *)
  obs : Obs.t;
  c_batches : Obs.Counter.t;
  c_batch_ops : Obs.Counter.t;
  c_flash_ops : Obs.Counter.t;
  c_stops : Obs.Counter.t;
  c_retries : Obs.Counter.t;
}

let ( let* ) = Result.bind

let error_to_string = Eof_error.to_string

let set_retry t attempts =
  if attempts < 1 then invalid_arg "Session.set_retry: attempts must be >= 1";
  t.attempts <- attempts

(* The wait before retry [n + 1]: 200 us doubling to a 5 ms ceiling —
   cheap against a 500 ms timeout, decisive against a transient
   glitch. *)
let backoff_us n = Float.min (Float.ldexp 200. (n - 1)) 5_000.

(* One exchange of the framed request: decode, parse. *)
let exchange t tx =
  match Transport.exchange t.transport ~server:t.feed tx with
  | Error _ as err -> err
  | Ok rx ->
    (match
       List.find_map
         (function Rsp.Decoder.Packet p -> Some p | _ -> None)
         (Rsp.Decoder.feed t.decoder rx)
     with
     | None -> Error (Eof_error.desync "no reply frame")
     | Some p -> Rsp.parse_reply ~pc_reg:t.pc_reg p)

(* Attempt [n] of one logical request, the framed [tx]. Only link-level
   failures (timeout, desync) are retried; [Remote]/[Protocol] replies
   are deterministic answers. Backoff waits are charged to the
   transport's virtual clock, so recovery is deterministic and visible
   in virtual time; on a clean link the loop is inert. *)
let rec request_frame t tx n =
  match exchange t tx with
  | Ok _ as ok -> ok
  | Error e when Eof_error.retryable e && n < t.attempts ->
    Transport.charge_us t.transport (backoff_us n);
    Obs.Counter.incr t.c_retries;
    if Obs.active t.obs then
      Obs.emit t.obs (Obs.Event.Recovery { rung = "retry"; attempt = n });
    request_frame t tx (n + 1)
  | Error e when n > 1 -> Error (Eof_error.with_context (Printf.sprintf "after %d attempts" n) e)
  | Error _ as err -> err

(* Render and frame [cmd] in the session's buffer, then request it. *)
let request t cmd =
  t.requests <- t.requests + 1;
  let tx = t.tx in
  Rsp.Out.clear tx;
  Rsp.Out.open_frame tx;
  Rsp.add_command tx cmd;
  Rsp.Out.close_frame tx;
  request_frame t (Rsp.Out.contents tx) 1

let expect_ok t cmd =
  let* reply = request t cmd in
  match reply with
  | Rsp.Ok_reply -> Ok ()
  | Rsp.Error_reply n -> Error (Eof_error.remote n)
  | _ -> Error (Eof_error.protocol "expected OK")

let expect_hex t cmd =
  let* reply = request t cmd in
  match reply with
  | Rsp.Raw s -> Rsp.hex_data s
  | Rsp.Error_reply n -> Error (Eof_error.remote n)
  | _ -> Error (Eof_error.protocol "expected hex data")

let connect ?obs ~transport ~server () =
  let board = Openocd.board server in
  let arch = (Board.profile board).Board.arch in
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let t =
    {
      transport;
      feed = Openocd.feed server;
      decoder = Rsp.Decoder.create ();
      tx = Rsp.Out.create ();
      pc_reg = arch.Arch.pc_register;
      endianness = arch.Arch.endianness;
      requests = 0;
      features = "";
      attempts = 3;
      obs;
      c_batches = Obs.Counter.make obs "session.batches";
      c_batch_ops = Obs.Counter.make obs "session.batch_ops";
      c_flash_ops = Obs.Counter.make obs "session.flash_ops";
      c_stops = Obs.Counter.make obs "session.stops";
      c_retries = Obs.Counter.make obs "session.retries";
    }
  in
  let* reply = request t (Rsp.Q_supported "swbreak+;vBatch+") in
  match reply with
  | Rsp.Raw features when features <> "" ->
    t.features <- features;
    Ok t
  | Rsp.Raw _ -> Error (Eof_error.protocol "empty qSupported reply")
  | _ -> Error (Eof_error.protocol "unexpected qSupported reply")

let has_feature t name =
  List.exists (fun f -> String.trim f = name) (String.split_on_char ';' t.features)

(* Resynchronize a desynced link: throw away whatever partial frame the
   decoder is stuck on and confirm the stub still answers a halt-reason
   query. This is rung 2 of the escalation ladder — cheaper than a
   reset, and sufficient when the damage was host-side decode state. *)
let resync t =
  t.decoder <- Rsp.Decoder.create ();
  let* reply = request t Rsp.Halt_reason in
  match reply with
  | Rsp.Error_reply n -> Error (Eof_error.remote n)
  | _ -> Ok ()

let read_mem t ~addr ~len = expect_hex t (Rsp.Read_mem { addr; len })

let write_mem t ~addr data = expect_ok t (Rsp.Write_mem { addr; data })

let batch t ops =
  let n_ops = Array.length ops in
  Obs.Counter.incr t.c_batches;
  Obs.Counter.add t.c_batch_ops n_ops;
  if Obs.active t.obs then Obs.emit t.obs (Obs.Event.Batch { ops = n_ops });
  let* reply = request t (Rsp.Batch ops) in
  match reply with
  | Rsp.Raw s when String.length s >= 1 && s.[0] = 'b' ->
    (match Rsp.Replies.read s ~pos:1 with
     | Error e -> Error (Eof_error.with_context "batch" e)
     | Ok replies ->
       if Rsp.Replies.length replies <> n_ops then
         Error (Eof_error.protocol "batch reply count mismatch")
       else Ok replies)
  | Rsp.Error_reply n -> Error (Eof_error.remote n)
  | Rsp.Raw "" -> Error (Eof_error.protocol "stub does not support vBatch")
  | _ -> Error (Eof_error.protocol "expected batch reply")

let read_u32 t ~addr =
  let* raw = read_mem t ~addr ~len:4 in
  let b = Bytes.unsafe_of_string raw in
  Ok
    (match t.endianness with
     | Arch.Little -> Bytes.get_int32_le b 0
     | Arch.Big -> Bytes.get_int32_be b 0)

let write_u32 t ~addr v =
  let b = Bytes.create 4 in
  (match t.endianness with
   | Arch.Little -> Bytes.set_int32_le b 0 v
   | Arch.Big -> Bytes.set_int32_be b 0 v);
  write_mem t ~addr (Bytes.unsafe_to_string b)

let set_breakpoint t addr = expect_ok t (Rsp.Insert_breakpoint addr)

let remove_breakpoint t addr = expect_ok t (Rsp.Remove_breakpoint addr)

let stop_of_reply = function
  | Rsp.Stop { signal = _; pc; detail = "swbreak" } -> Ok (Stopped_breakpoint pc)
  | Rsp.Stop { signal = _; pc; detail = "quantum" } -> Ok (Stopped_quantum pc)
  | Rsp.Stop { signal = _; pc; detail = "fault" } -> Ok (Stopped_fault pc)
  | Rsp.Stop { signal = _; pc; detail } ->
    if detail = "initial" then Ok (Stopped_quantum pc)
    else Error (Eof_error.protocol (Printf.sprintf "unknown stop detail %S" detail))
  | Rsp.Exited _ -> Ok Target_exited
  | Rsp.Error_reply n -> Error (Eof_error.remote n)
  | _ -> Error (Eof_error.protocol "expected stop reply")

let observe_stop t result =
  (match result with
   | Ok stop ->
     Obs.Counter.incr t.c_stops;
     if Obs.active t.obs then
       Obs.emit t.obs
         (Obs.Event.Stop { kind = Openocd.stop_kind stop; pc = Openocd.stop_pc stop })
   | Error _ -> ());
  result

let decode_stop t replies =
  match Rsp.Replies.stop replies ~pc_reg:t.pc_reg with
  | Error e -> Error e
  | Ok reply -> observe_stop t (stop_of_reply reply)

let continue_ t =
  let* reply = request t Rsp.Continue in
  observe_stop t (stop_of_reply reply)

let read_pc t =
  let* raw = expect_hex t Rsp.Read_registers in
  let need = (t.pc_reg + 1) * 4 in
  if String.length raw < need then Error (Eof_error.protocol "register dump too short")
  else
    let b = Bytes.unsafe_of_string raw in
    let v =
      match t.endianness with
      | Arch.Little -> Bytes.get_int32_le b (t.pc_reg * 4)
      | Arch.Big -> Bytes.get_int32_be b (t.pc_reg * 4)
    in
    Ok (Int32.to_int (Int32.logand v 0x7FFFFFFFl))

let observe_flash t ~op ~addr ~len =
  Obs.Counter.incr t.c_flash_ops;
  if Obs.active t.obs then
    Obs.emit t.obs (Obs.Event.Flash_op { op; addr; len })

let flash_erase t ~addr ~len =
  observe_flash t ~op:"erase" ~addr ~len;
  expect_ok t (Rsp.Flash_erase { addr; len })

let flash_write t ~addr data =
  observe_flash t ~op:"write" ~addr ~len:(String.length data);
  expect_ok t (Rsp.Flash_write { addr; data })

let flash_done t =
  observe_flash t ~op:"done" ~addr:0 ~len:0;
  expect_ok t Rsp.Flash_done

(* QSnapshot replies are "S<hex>" — the page count the stub acted on.
   Distinct from plain hex data so a desynced reply can't be mistaken
   for a count. *)
let parse_snapshot_reply reply =
  match reply with
  | Rsp.Raw s when String.length s >= 2 && s.[0] = 'S' ->
    (match Rsp.parse_hex_int (String.sub s 1 (String.length s - 1)) with
     | Ok n -> Ok n
     | Error _ -> Error (Eof_error.protocol (Printf.sprintf "bad QSnapshot reply %S" s)))
  | Rsp.Raw "" -> Error (Eof_error.protocol "stub does not support QSnapshot")
  | Rsp.Error_reply n -> Error (Eof_error.remote n)
  | _ -> Error (Eof_error.protocol "unexpected QSnapshot reply")

let supports_snapshot t = has_feature t "QSnapshot+"

let snapshot_save t =
  if not (supports_snapshot t) then
    Error (Eof_error.with_context "snapshot save" (Eof_error.protocol "QSnapshot not negotiated"))
  else
    let* reply = request t Rsp.Snapshot_save in
    Result.map_error (Eof_error.with_context "snapshot save") (parse_snapshot_reply reply)

let snapshot_restore t =
  if not (supports_snapshot t) then
    Error
      (Eof_error.with_context "snapshot restore" (Eof_error.protocol "QSnapshot not negotiated"))
  else
    let* reply = request t Rsp.Snapshot_restore in
    Result.map_error (Eof_error.with_context "snapshot restore") (parse_snapshot_reply reply)

let monitor t cmd =
  let* reply = request t (Rsp.Monitor cmd) in
  match reply with
  | Rsp.Ok_reply -> Ok ""
  | Rsp.Raw s -> Rsp.hex_data s
  | Rsp.Error_reply n -> Error (Eof_error.remote n)
  | _ -> Error (Eof_error.protocol "unexpected qRcmd reply")

let reset_target t =
  if Obs.active t.obs then Obs.emit t.obs Obs.Event.Reset_board;
  let* _ = monitor t "reset" in
  (* A real probe often spews desynced garbage right after the target
     resets; arm that fault in the injector, if one is riding the
     link. *)
  Transport.note_reset t.transport;
  Ok ()

let inject_gpio t ~pin ~level =
  let* _ = monitor t (Printf.sprintf "gpio %d %s" pin (if level then "1" else "0")) in
  Ok ()

let drain_uart t = monitor t "uart"

let last_fault t = monitor t "fault"

let requests t = t.requests

let obs t = t.obs
