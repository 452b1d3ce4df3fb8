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
  server : Openocd.t;
  mutable decoder : Rsp.Decoder.t;
  pc_reg : int;
  endianness : Arch.endianness;
  mutable requests : int;
  mutable features : string;  (* the stub's qSupported reply *)
  mutable retry : Eof_error.Retry.budget;
  obs : Obs.t;
  c_batches : Obs.Counter.t;
  c_batch_ops : Obs.Counter.t;
  c_flash_ops : Obs.Counter.t;
  c_stops : Obs.Counter.t;
  c_retries : Obs.Counter.t;
}

let ( let* ) = Result.bind

let error_to_string = Eof_error.to_string

let set_retry t budget = t.retry <- budget

(* One logical request: frame, exchange, decode, parse — retried under
   the session's budget. Only link-level failures (timeout, desync) are
   retried; [Remote]/[Protocol] replies are deterministic answers.
   Backoff waits are charged to the transport's virtual clock, so
   recovery is deterministic and visible in virtual time. *)
let request t payload =
  t.requests <- t.requests + 1;
  let tx = Rsp.make_frame payload in
  let attempt () =
    match Transport.exchange t.transport ~server:(Openocd.feed t.server) tx with
    | Error _ as err -> err
    | Ok rx ->
      let events = Rsp.Decoder.feed t.decoder rx in
      let packet =
        List.find_map
          (function Rsp.Decoder.Packet p -> Some p | _ -> None)
          events
      in
      (match packet with
       | None -> Error (Eof_error.desync "no reply frame")
       | Some p -> Rsp.parse_reply ~pc_reg:t.pc_reg p)
  in
  Eof_error.Retry.run ~budget:t.retry
    ~sleep_us:(Transport.charge_us t.transport)
    ~on_retry:(fun ~attempt _ ->
      Obs.Counter.incr t.c_retries;
      if Obs.active t.obs then
        Obs.emit t.obs (Obs.Event.Recovery { rung = "retry"; attempt }))
    attempt

let expect_ok t payload =
  let* reply = request t payload in
  match reply with
  | Rsp.Ok_reply -> Ok ()
  | Rsp.Error_reply n -> Error (Eof_error.remote n)
  | _ -> Error (Eof_error.protocol "expected OK")

let expect_hex t payload =
  let* reply = request t payload in
  match reply with
  | Rsp.Raw s ->
    (match Eof_util.Hex.decode s with
     | Ok data -> Ok data
     | Error e -> Error (Eof_error.protocol e))
  | Rsp.Error_reply n -> Error (Eof_error.remote n)
  | _ -> Error (Eof_error.protocol "expected hex data")

let connect ?obs ~transport ~server () =
  let board = Openocd.board server in
  let arch = (Board.profile board).Board.arch in
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let t =
    {
      transport;
      server;
      decoder = Rsp.Decoder.create ();
      pc_reg = arch.Arch.pc_register;
      endianness = arch.Arch.endianness;
      requests = 0;
      features = "";
      retry = Eof_error.Retry.default;
      obs;
      c_batches = Obs.Counter.make obs "session.batches";
      c_batch_ops = Obs.Counter.make obs "session.batch_ops";
      c_flash_ops = Obs.Counter.make obs "session.flash_ops";
      c_stops = Obs.Counter.make obs "session.stops";
      c_retries = Obs.Counter.make obs "session.retries";
    }
  in
  let* reply = request t (Rsp.render_command (Rsp.Q_supported "swbreak+;vBatch+")) in
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
  let* reply = request t (Rsp.render_command Rsp.Halt_reason) in
  match reply with
  | Rsp.Error_reply n -> Error (Eof_error.remote n)
  | _ -> Ok ()

let read_mem t ~addr ~len = expect_hex t (Rsp.render_command (Rsp.Read_mem { addr; len }))

let write_mem t ~addr data =
  expect_ok t (Rsp.render_command (Rsp.Write_mem { addr; data }))

let batch t ops =
  Obs.Counter.incr t.c_batches;
  Obs.Counter.add t.c_batch_ops (List.length ops);
  if Obs.active t.obs then
    Obs.emit t.obs (Obs.Event.Batch { ops = List.length ops });
  let* reply = request t (Rsp.render_command (Rsp.Batch ops)) in
  match reply with
  | Rsp.Raw s when String.length s >= 1 && s.[0] = 'b' ->
    (match Rsp.parse_batch_replies ~pos:1 s with
     | Error e -> Error (Eof_error.with_context "batch" e)
     | Ok replies ->
       if List.length replies <> List.length ops then
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

let set_breakpoint t addr = expect_ok t (Rsp.render_command (Rsp.Insert_breakpoint addr))

let remove_breakpoint t addr = expect_ok t (Rsp.render_command (Rsp.Remove_breakpoint addr))

let stop_kind = function
  | Stopped_breakpoint _ -> "breakpoint"
  | Stopped_quantum _ -> "quantum"
  | Stopped_fault _ -> "fault"
  | Target_exited -> "exited"

let stop_pc = function
  | Stopped_breakpoint pc | Stopped_quantum pc | Stopped_fault pc -> pc
  | Target_exited -> -1

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
         (Obs.Event.Stop { kind = stop_kind stop; pc = stop_pc stop })
   | Error _ -> ());
  result

let decode_stop t payload =
  match Rsp.parse_reply ~pc_reg:t.pc_reg payload with
  | Error e -> Error e
  | Ok reply -> observe_stop t (stop_of_reply reply)

let continue_ t =
  let* reply = request t (Rsp.render_command Rsp.Continue) in
  observe_stop t (stop_of_reply reply)

let read_pc t =
  let* raw = expect_hex t (Rsp.render_command Rsp.Read_registers) in
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
  expect_ok t (Rsp.render_command (Rsp.Flash_erase { addr; len }))

let flash_write t ~addr data =
  observe_flash t ~op:"write" ~addr ~len:(String.length data);
  expect_ok t (Rsp.render_command (Rsp.Flash_write { addr; data }))

let flash_done t =
  observe_flash t ~op:"done" ~addr:0 ~len:0;
  expect_ok t (Rsp.render_command Rsp.Flash_done)

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
    let* reply = request t (Rsp.render_command Rsp.Snapshot_save) in
    Result.map_error (Eof_error.with_context "snapshot save") (parse_snapshot_reply reply)

let snapshot_restore t =
  if not (supports_snapshot t) then
    Error
      (Eof_error.with_context "snapshot restore" (Eof_error.protocol "QSnapshot not negotiated"))
  else
    let* reply = request t (Rsp.render_command Rsp.Snapshot_restore) in
    Result.map_error (Eof_error.with_context "snapshot restore") (parse_snapshot_reply reply)

let monitor t cmd =
  let* reply = request t (Rsp.render_command (Rsp.Monitor cmd)) in
  match reply with
  | Rsp.Ok_reply -> Ok ""
  | Rsp.Raw s ->
    (match Eof_util.Hex.decode s with
     | Ok text -> Ok text
     | Error e -> Error (Eof_error.protocol e))
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
