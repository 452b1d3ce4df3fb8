open Eof_hw
open Eof_exec

type t = {
  board : Board.t;
  engine : Engine.t;
  continue_quantum : int;
  decoder : Rsp.Decoder.t;
  pc_reg : int;
  reg_dump_words : int;
  mutable last_stop : Rsp.reply;
  mutable packets_served : int;
  (* Board-side snapshot served by the QSnapshot extension; the host only
     ever holds a handle, the saved pages stay on this side of the link. *)
  mutable snapshot : Snapshot.t option;
}

let create ?(continue_quantum = 200_000) ~board ~engine () =
  let arch = (Board.profile board).Board.arch in
  {
    board;
    engine;
    continue_quantum;
    decoder = Rsp.Decoder.create ();
    pc_reg = arch.Arch.pc_register;
    reg_dump_words = max arch.Arch.register_count (arch.Arch.pc_register + 1);
    last_stop = Rsp.Stop { signal = 5; pc = Engine.pc engine; detail = "initial" };
    packets_served = 0;
    snapshot = None;
  }

let board t = t.board

let engine t = t.engine

let stop_of_reason t (reason : Engine.stop_reason) : Rsp.reply =
  match reason with
  | Engine.Breakpoint_hit pc -> Rsp.Stop { signal = 5; pc; detail = "swbreak" }
  | Engine.Fuel_exhausted ->
    Rsp.Stop { signal = 2; pc = Engine.pc t.engine; detail = "quantum" }
  | Engine.Faulted _ -> Rsp.Stop { signal = 11; pc = Engine.pc t.engine; detail = "fault" }
  | Engine.Exited -> Rsp.Exited 0

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
  Board.reset t.board;
  Engine.reset t.engine;
  t.last_stop <- Rsp.Stop { signal = 5; pc = Engine.pc t.engine; detail = "initial" }

let monitor t cmd : Rsp.reply =
  match String.trim cmd with
  | "reset" | "reset halt" ->
    do_reset t;
    Rsp.Ok_reply
  | "uart" -> Rsp.Hex_data (Uart.drain (Board.uart t.board))
  | "fault" ->
    let text =
      match Engine.last_fault t.engine with None -> "" | Some f -> Fault.to_string f
    in
    Rsp.Hex_data text
  | "bootok" -> Rsp.Hex_data (if Board.boot_ok t.board then "1" else "0")
  | "cycles" ->
    Rsp.Hex_data (Int64.to_string (Clock.cycles (Board.clock t.board)))
  | cmd when String.length cmd > 5 && String.sub cmd 0 5 = "gpio " ->
    (match String.split_on_char ' ' cmd with
     | [ _; pin; level ] ->
       (match (int_of_string_opt pin, level) with
        | Some pin, ("0" | "1") ->
          (match
             Gpio.set_level (Board.gpio t.board) ~pin ~level:(level = "1")
           with
           | Ok () -> Rsp.Ok_reply
           | Error _ -> Rsp.Error_reply 0x02)
        | _ -> Rsp.Error_reply 0x02)
     | _ -> Rsp.Error_reply 0x02)
  | _ -> Rsp.Error_reply 0x01

let word_of_le_be t raw =
  let b = Bytes.unsafe_of_string raw in
  match (Board.profile t.board).Board.arch.Arch.endianness with
  | Arch.Little -> Bytes.get_int32_le b 0
  | Arch.Big -> Bytes.get_int32_be b 0

let execute_batch_op t (op : Rsp.batch_op) : Rsp.batch_reply =
  match op with
  | Rsp.B_continue ->
    let reply = stop_of_reason t (Engine.run t.engine ~fuel:t.continue_quantum) in
    t.last_stop <- reply;
    Rsp.Br_stop (Rsp.render_reply ~pc_reg:t.pc_reg reply)
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
      (match Board.read_mem t.board ~addr:count_addr ~len:4 with
       | Error _ -> Rsp.Br_error 0x0E
       | Ok raw ->
         let count = Int32.to_int (word_of_le_be t raw) in
         let n = max 0 (min count max_count) in
         let data =
           if n = 0 then Ok ""
           else Board.read_mem t.board ~addr:data_addr ~len:(n * stride)
         in
         (match data with
          | Error _ -> Rsp.Br_error 0x0E
          | Ok data ->
            let resetted =
              if reset then Board.write_ram t.board ~addr:count_addr (String.make 4 '\x00')
              else Ok ()
            in
            (match resetted with
             | Ok () -> Rsp.Br_counted { count; data }
             | Error _ -> Rsp.Br_error 0x0E)))
  | Rsp.B_monitor cmd ->
    (match monitor t cmd with
     | Rsp.Ok_reply -> Rsp.Br_ok
     | Rsp.Hex_data text -> Rsp.Br_data text
     | Rsp.Error_reply n -> Rsp.Br_error n
     | _ -> Rsp.Br_error 0x01)

let execute t (cmd : Rsp.command) : Rsp.reply =
  match cmd with
  | Rsp.Q_supported _ ->
    Rsp.Supported "PacketSize=4000;swbreak+;vFlashErase+;qRcmd+;vBatch+;X+;QSnapshot+"
  | Rsp.Read_mem { addr; len } ->
    (match Board.read_mem t.board ~addr ~len with
     | Ok data -> Rsp.Hex_data data
     | Error _ -> Rsp.Error_reply 0x0E)
  | Rsp.Write_mem { addr; data } | Rsp.Write_mem_bin { addr; data } ->
    (match Board.write_ram t.board ~addr data with
     | Ok () -> Rsp.Ok_reply
     | Error _ -> Rsp.Error_reply 0x0E)
  | Rsp.Insert_breakpoint addr ->
    Engine.set_breakpoint t.engine addr;
    Rsp.Ok_reply
  | Rsp.Remove_breakpoint addr ->
    Engine.remove_breakpoint t.engine addr;
    Rsp.Ok_reply
  | Rsp.Continue ->
    let reply = stop_of_reason t (Engine.run t.engine ~fuel:t.continue_quantum) in
    t.last_stop <- reply;
    reply
  | Rsp.Step ->
    let reply = stop_of_reason t (Engine.step_one t.engine) in
    t.last_stop <- reply;
    reply
  | Rsp.Read_registers -> Rsp.Raw (Eof_util.Hex.encode (reg_dump t))
  | Rsp.Halt_reason -> t.last_stop
  | Rsp.Flash_erase { addr; len } ->
    (try
       Flash.erase_range (Board.flash t.board) ~addr ~len;
       Rsp.Ok_reply
     with Fault.Trap _ -> Rsp.Error_reply 0x0E)
  | Rsp.Flash_write { addr; data } ->
    (try
       Flash.program (Board.flash t.board) ~addr data;
       Rsp.Ok_reply
     with Fault.Trap _ -> Rsp.Error_reply 0x0E)
  | Rsp.Flash_done -> Rsp.Ok_reply
  | Rsp.Monitor cmd -> monitor t cmd
  | Rsp.Batch ops ->
    (* Sub-operations run in order; a failing one yields its error slot
       and execution continues, so the client always gets positionally
       matched sub-replies. *)
    Rsp.Raw (Rsp.render_batch_replies ~prefix:"b" (List.map (execute_batch_op t) ops))
  | Rsp.Snapshot_save ->
    let snap = Board.snapshot t.board in
    t.snapshot <- Some snap;
    Rsp.Raw (Printf.sprintf "S%x" (Snapshot.pages snap))
  | Rsp.Snapshot_restore ->
    (match t.snapshot with
     | None -> Rsp.Error_reply 0x23 (* restore before save *)
     | Some snap ->
       let dirty = Board.restore_snapshot t.board snap in
       Rsp.Raw (Printf.sprintf "S%x" dirty))
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
        t.packets_served <- t.packets_served + 1;
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

let packets_served t = t.packets_served
