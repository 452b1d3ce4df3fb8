open Eof_hw
open Eof_exec

(* The site budget of one [c] packet. *)
let continue_quantum = 200_000

type t = {
  board : Board.t;
  engine : Engine.t;
  decoder : Rsp.Decoder.t;
  pc_reg : int;
  reg_dump_words : int;
  mutable last_stop : Rsp.reply;
  (* Board-side snapshot served by the QSnapshot extension; the host only
     ever holds a handle, the saved pages stay on this side of the link. *)
  mutable snapshot : Snapshot.t option;
}

let create ~board ~engine () =
  let arch = (Board.profile board).Board.arch in
  {
    board;
    engine;
    decoder = Rsp.Decoder.create ();
    pc_reg = arch.Arch.pc_register;
    reg_dump_words = max arch.Arch.register_count (arch.Arch.pc_register + 1);
    last_stop = Rsp.Stop { signal = 5; pc = Engine.pc engine; detail = "initial" };
    snapshot = None;
  }

let board t = t.board

(* --- board-side operations ------------------------------------------------
   What the probe does to the board and engine, typed. The RSP dispatcher
   below renders their results as replies; the native backend calls them
   directly. *)

type stop =
  | Stopped_breakpoint of int
  | Stopped_quantum of int
  | Stopped_fault of int
  | Target_exited

let classify t (reason : Engine.stop_reason) =
  match reason with
  | Engine.Breakpoint_hit pc -> Stopped_breakpoint pc
  | Engine.Fuel_exhausted -> Stopped_quantum (Engine.pc t.engine)
  | Engine.Faulted _ -> Stopped_fault (Engine.pc t.engine)
  | Engine.Exited -> Target_exited

let resume t = classify t (Engine.run t.engine ~fuel:continue_quantum)

let reset t =
  Board.reset t.board;
  Engine.reset t.engine

let drain_uart t = Uart.drain (Board.uart t.board)

let fault_text t =
  match Engine.last_fault t.engine with None -> "" | Some f -> Fault.to_string f

let set_gpio t ~pin ~level = Gpio.set_level (Board.gpio t.board) ~pin ~level

let flash_erase t ~addr ~len =
  match Flash.erase_range (Board.flash t.board) ~addr ~len with
  | () -> Ok ()
  | exception Fault.Trap f -> Error f

let flash_program t ~addr data =
  match Flash.program (Board.flash t.board) ~addr data with
  | () -> Ok ()
  | exception Fault.Trap f -> Error f

let snapshot_save t =
  let snap = Board.snapshot t.board in
  t.snapshot <- Some snap;
  Snapshot.pages snap

let snapshot_restore t =
  match t.snapshot with
  | None -> None
  | Some snap -> Some (Board.restore_snapshot t.board snap)

(* --- RSP dispatcher ------------------------------------------------------ *)

let reply_of_stop = function
  | Stopped_breakpoint pc -> Rsp.Stop { signal = 5; pc; detail = "swbreak" }
  | Stopped_quantum pc -> Rsp.Stop { signal = 2; pc; detail = "quantum" }
  | Stopped_fault pc -> Rsp.Stop { signal = 11; pc; detail = "fault" }
  | Target_exited -> Rsp.Exited 0

let initial_stop t = Rsp.Stop { signal = 5; pc = Engine.pc t.engine; detail = "initial" }

let stopped t stop =
  let reply = reply_of_stop stop in
  t.last_stop <- reply;
  reply

let reg_dump t =
  (* All registers read as zero except the PC slot: we model a core whose
     only architecturally visible progress is the program counter. *)
  let words = Array.make t.reg_dump_words 0l in
  words.(t.pc_reg) <- Int32.of_int (Engine.pc t.engine);
  let buf = Bytes.create (4 * t.reg_dump_words) in
  let endianness = (Board.profile t.board).Board.arch.Arch.endianness in
  Array.iteri
    (fun i w ->
      match endianness with
      | Arch.Little -> Bytes.set_int32_le buf (4 * i) w
      | Arch.Big -> Bytes.set_int32_be buf (4 * i) w)
    words;
  Bytes.unsafe_to_string buf

let do_reset t =
  reset t;
  t.last_stop <- initial_stop t

let monitor t cmd : Rsp.reply =
  match String.trim cmd with
  | "reset" | "reset halt" ->
    do_reset t;
    Rsp.Ok_reply
  | "uart" -> Rsp.Hex_data (drain_uart t)
  | "fault" -> Rsp.Hex_data (fault_text t)
  | "cycles" ->
    Rsp.Hex_data (Int64.to_string (Clock.cycles (Board.clock t.board)))
  | cmd when String.length cmd > 5 && String.sub cmd 0 5 = "gpio " ->
    (match String.split_on_char ' ' cmd with
     | [ _; pin; level ] ->
       (match (int_of_string_opt pin, level) with
        | Some pin, ("0" | "1") ->
          (match set_gpio t ~pin ~level:(level = "1") with
           | Ok () -> Rsp.Ok_reply
           | Error _ -> Rsp.Error_reply 0x02)
        | _ -> Rsp.Error_reply 0x02)
     | _ -> Rsp.Error_reply 0x02)
  | _ -> Rsp.Error_reply 0x01

let execute_batch_op t (op : Rsp.batch_op) : Rsp.batch_reply =
  match op with
  | Rsp.B_continue -> Rsp.Br_stop (Rsp.render_reply ~pc_reg:t.pc_reg (stopped t (resume t)))
  | Rsp.B_read { addr; len } ->
    (match Board.read_mem t.board ~addr ~len with
     | Ok data -> Rsp.Br_data data
     | Error _ -> Rsp.Br_error 0x0E)
  | Rsp.B_write { addr; data } ->
    (match Board.write_ram t.board ~addr data with
     | Ok () -> Rsp.Br_ok
     | Error _ -> Rsp.Br_error 0x0E)
  | Rsp.B_read_counted { count_addr; data_addr; stride; max_count; reset } ->
    if stride <= 0 || max_count < 0 then Rsp.Br_error 0x16
    else
      (match Board.read_counted t.board ~count_addr ~data_addr ~stride ~max_count ~reset with
       | Ok (count, data) -> Rsp.Br_counted { count; data }
       | Error _ -> Rsp.Br_error 0x0E)
  | Rsp.B_monitor cmd ->
    (match monitor t cmd with
     | Rsp.Ok_reply -> Rsp.Br_ok
     | Rsp.Hex_data text -> Rsp.Br_data text
     | Rsp.Error_reply n -> Rsp.Br_error n
     | _ -> Rsp.Br_error 0x01)

let execute t (cmd : Rsp.command) : Rsp.reply =
  match cmd with
  | Rsp.Q_supported _ ->
    Rsp.Supported "PacketSize=4000;swbreak+;vFlashErase+;qRcmd+;vBatch+;QSnapshot+"
  | Rsp.Read_mem { addr; len } ->
    (match Board.read_mem t.board ~addr ~len with
     | Ok data -> Rsp.Hex_data data
     | Error _ -> Rsp.Error_reply 0x0E)
  | Rsp.Write_mem { addr; data } ->
    (match Board.write_ram t.board ~addr data with
     | Ok () -> Rsp.Ok_reply
     | Error _ -> Rsp.Error_reply 0x0E)
  | Rsp.Insert_breakpoint addr ->
    Engine.set_breakpoint t.engine addr;
    Rsp.Ok_reply
  | Rsp.Remove_breakpoint addr ->
    Engine.remove_breakpoint t.engine addr;
    Rsp.Ok_reply
  | Rsp.Continue -> stopped t (resume t)
  | Rsp.Step -> stopped t (classify t (Engine.step_one t.engine))
  | Rsp.Read_registers -> Rsp.Raw (Eof_util.Hex.encode (reg_dump t))
  | Rsp.Halt_reason -> t.last_stop
  | Rsp.Flash_erase { addr; len } ->
    (match flash_erase t ~addr ~len with
     | Ok () -> Rsp.Ok_reply
     | Error _ -> Rsp.Error_reply 0x0E)
  | Rsp.Flash_write { addr; data } ->
    (match flash_program t ~addr data with
     | Ok () -> Rsp.Ok_reply
     | Error _ -> Rsp.Error_reply 0x0E)
  | Rsp.Flash_done -> Rsp.Ok_reply
  | Rsp.Monitor cmd -> monitor t cmd
  | Rsp.Batch ops ->
    (* Sub-operations run in order; a failing one yields its error slot
       and execution continues, so the client always gets positionally
       matched sub-replies. *)
    Rsp.Raw (Rsp.render_batch_replies ~prefix:"b" (List.map (execute_batch_op t) ops))
  | Rsp.Snapshot_save -> Rsp.Raw (Printf.sprintf "S%x" (snapshot_save t))
  | Rsp.Snapshot_restore ->
    (match snapshot_restore t with
     | None -> Rsp.Error_reply 0x23 (* restore before save *)
     | Some dirty -> Rsp.Raw (Printf.sprintf "S%x" dirty))
  | Rsp.Kill ->
    do_reset t;
    Rsp.Ok_reply

let feed t bytes =
  let out = Buffer.create 64 in
  let events = Rsp.Decoder.feed t.decoder bytes in
  List.iter
    (fun event ->
      match event with
      | Rsp.Decoder.Packet payload ->
        Buffer.add_char out '+';
        let reply =
          match Rsp.parse_command payload with
          | Ok cmd -> execute t cmd
          | Error _ -> Rsp.Raw ""
          (* unsupported packet: empty reply per RSP convention *)
        in
        Buffer.add_string out (Rsp.make_frame (Rsp.render_reply ~pc_reg:t.pc_reg reply))
      | Rsp.Decoder.Bad_checksum _ -> Buffer.add_char out '-'
      | Rsp.Decoder.Ack | Rsp.Decoder.Nak | Rsp.Decoder.Break -> ())
    events;
  Buffer.contents out
