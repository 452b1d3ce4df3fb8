open Eof_hw
open Eof_exec
open Eof_debug

(* [payload] framed as the probe frames a raw reply. *)
let frame payload =
  let out = Rsp.Out.create () in
  Rsp.Out.open_frame out;
  Rsp.add_reply out ~pc_reg:15 (Rsp.Raw payload);
  Rsp.Out.close_frame out;
  Rsp.Out.contents out

let render = Test_decoders.render

let escape = Test_decoders.Ref.escape_binary

let test_checksum_frame () = Alcotest.(check string) "frame" "$OK#9a" (frame "OK")

(* Binary data rides vFlashWrite escaped, and parses back raw. *)
let test_escape_roundtrip () =
  let raw = "a$b#c}d*e" in
  let payload = render (Rsp.Flash_write { addr = 0; data = raw }) in
  Alcotest.(check string) "escaped" ("vFlashWrite:0:" ^ escape raw) payload;
  Alcotest.(check bool) "no raw specials" true
    (not (String.contains payload '$') && not (String.contains payload '#'));
  match Rsp.parse_command payload with
  | Ok (Rsp.Flash_write { data; _ }) -> Alcotest.(check string) "roundtrip" raw data
  | Ok _ -> Alcotest.fail "parsed as another command"
  | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)

let test_decoder_stream () =
  let d = Rsp.Decoder.create () in
  (* Two frames split across feeds plus noise and an ack. *)
  let ev1 = Rsp.Decoder.feed d "+$O" in
  let ev2 = Rsp.Decoder.feed d ("K#9a" ^ "noise" ^ frame "m0,4") in
  (match ev1 with
   | [ Rsp.Decoder.Ack ] -> ()
   | _ -> Alcotest.fail "expected ack");
  match ev2 with
  | [ Rsp.Decoder.Packet "OK"; Rsp.Decoder.Packet "m0,4" ] -> ()
  | _ -> Alcotest.fail "expected two packets"

let test_decoder_bad_checksum () =
  let d = Rsp.Decoder.create () in
  match Rsp.Decoder.feed d "$OK#00" with
  | [ Rsp.Decoder.Bad_checksum "OK" ] -> ()
  | _ -> Alcotest.fail "expected bad checksum"

let test_command_roundtrip () =
  let cases =
    [
      Rsp.Q_supported "swbreak+";
      Rsp.Read_mem { addr = 0x20000000; len = 64 };
      Rsp.Write_mem { addr = 0x100; data = "ab\x00\xFF" };
      Rsp.Insert_breakpoint 0x08004000;
      Rsp.Remove_breakpoint 0x08004000;
      Rsp.Continue;
      Rsp.Step;
      Rsp.Read_registers;
      Rsp.Halt_reason;
      Rsp.Flash_erase { addr = 0x08000000; len = 0x4000 };
      Rsp.Flash_write { addr = 0x08000000; data = "}$#*raw\x01" };
      Rsp.Flash_done;
      Rsp.Monitor "reset halt";
      Rsp.Kill;
    ]
  in
  List.iter
    (fun cmd ->
      match Rsp.parse_command (render cmd) with
      | Ok cmd' -> Alcotest.(check bool) "roundtrip" true (cmd = cmd')
      | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e))
    cases

let test_command_rejects () =
  List.iter
    (fun payload ->
      match Rsp.parse_command payload with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" payload))
    [ ""; "Mdeadbeef"; "Z9,100,2"; "m100"; "vFlashWrite:zz"; "qUnknown"; "X100,4:abcd";
      "m100,4;"; "c;"; "vBatch:c;" ]

let render_reply ~pc_reg reply =
  let out = Rsp.Out.create () in
  Rsp.add_reply out ~pc_reg reply;
  Rsp.Out.contents out

let test_reply_roundtrip () =
  let pc_reg = 15 in
  List.iter
    (fun reply ->
      match Rsp.parse_reply ~pc_reg (render_reply ~pc_reg reply) with
      | Ok reply' -> Alcotest.(check bool) "roundtrip" true (reply = reply')
      | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e))
    [
      Rsp.Ok_reply;
      Rsp.Error_reply 14;
      Rsp.Stop { signal = 5; pc = 0x08001234; detail = "swbreak" };
      Rsp.Stop { signal = 2; pc = 0x08000000; detail = "quantum" };
      Rsp.Exited 0;
    ]

(* A tiny machine for server/session tests: three sites then exit. *)
let make_machine () =
  let board = Board.create Profiles.stm32f4_disco in
  let base = (Board.profile board).Board.flash_base in
  let engine =
    Engine.create ~board ~fault_vector:(base + 0xF00) ~entry:(fun () ->
        Target.site (base + 0x100);
        Target.uart_tx "hello from target\n";
        Target.site (base + 0x104);
        Target.site (base + 0x108))
  in
  let server = Openocd.create ~board ~engine () in
  let transport = Transport.create () in
  (board, engine, server, transport)

let connect_exn (server, transport) =
  match Session.connect ~transport ~server () with
  | Ok s -> s
  | Error e -> Alcotest.fail (Session.error_to_string e)

let test_session_memory () =
  let board, _, server, transport = make_machine () in
  let s = connect_exn (server, transport) in
  let ram_base = (Board.profile board).Board.ram_base in
  (match Session.write_mem s ~addr:ram_base "fuzz" with
   | Ok () -> ()
   | Error e -> Alcotest.fail (Session.error_to_string e));
  (match Session.read_mem s ~addr:ram_base ~len:4 with
   | Ok data -> Alcotest.(check string) "rw over rsp" "fuzz" data
   | Error e -> Alcotest.fail (Session.error_to_string e));
  (match Session.write_u32 s ~addr:(ram_base + 8) 0xCAFEBABEl with
   | Ok () -> ()
   | Error e -> Alcotest.fail (Session.error_to_string e));
  (match Session.read_u32 s ~addr:(ram_base + 8) with
   | Ok v -> Alcotest.(check int32) "u32" 0xCAFEBABEl v
   | Error e -> Alcotest.fail (Session.error_to_string e));
  match Session.read_mem s ~addr:0x1 ~len:4 with
  | Error { Eof_util.Eof_error.kind = Remote _; _ } -> ()
  | _ -> Alcotest.fail "unmapped read must fail remotely"

let test_session_breakpoint_flow () =
  let board, _, server, transport = make_machine () in
  let s = connect_exn (server, transport) in
  let base = (Board.profile board).Board.flash_base in
  (match Session.set_breakpoint s (base + 0x104) with
   | Ok () -> ()
   | Error e -> Alcotest.fail (Session.error_to_string e));
  (match Session.continue_ s with
   | Ok (Session.Stopped_breakpoint pc) -> Alcotest.(check int) "bp pc" (base + 0x104) pc
   | Ok _ -> Alcotest.fail "wrong stop"
   | Error e -> Alcotest.fail (Session.error_to_string e));
  (match Session.read_pc s with
   | Ok pc -> Alcotest.(check int) "g pc" (base + 0x104) pc
   | Error e -> Alcotest.fail (Session.error_to_string e));
  (match Session.drain_uart s with
   | Ok log -> Alcotest.(check string) "uart over monitor" "hello from target\n" log
   | Error e -> Alcotest.fail (Session.error_to_string e));
  match Session.continue_ s with
  | Ok Session.Target_exited -> ()
  | Ok _ -> Alcotest.fail "expected exit"
  | Error e -> Alcotest.fail (Session.error_to_string e)

let test_session_reset_and_flash () =
  let board, _, server, transport = make_machine () in
  let s = connect_exn (server, transport) in
  let base = (Board.profile board).Board.flash_base in
  (match Session.flash_erase s ~addr:base ~len:0x4000 with
   | Ok () -> ()
   | Error e -> Alcotest.fail (Session.error_to_string e));
  (match Session.flash_write s ~addr:base "IMG}$#data" with
   | Ok () -> ()
   | Error e -> Alcotest.fail (Session.error_to_string e));
  (match Session.flash_done s with
   | Ok () -> ()
   | Error e -> Alcotest.fail (Session.error_to_string e));
  Alcotest.(check string) "flash content" "IMG}$#data"
    (Flash.read (Board.flash board) ~addr:base ~len:10);
  (match Session.reset_target s with
   | Ok () -> ()
   | Error e -> Alcotest.fail (Session.error_to_string e));
  Alcotest.(check int) "power cycled" 1 (Board.power_cycles board)

let test_transport_failures () =
  let _, _, server, _ = make_machine () in
  let bus = Eof_obs.Obs.create () in
  let transport = Transport.create ~obs:bus () in
  let s = connect_exn (server, transport) in
  (* A dead link: every exchange from the first on is dropped. *)
  Transport.set_injector transport
    (Some (Inject.create { Inject.default_config with kill_after = Some 0 }));
  (match Session.read_pc s with
   | Error { Eof_util.Eof_error.kind = Link_timeout; _ } -> ()
   | _ -> Alcotest.fail "expected timeout on dead link");
  Transport.set_injector transport None;
  (match Session.read_pc s with
   | Ok _ -> ()
   | Error e -> Alcotest.fail (Session.error_to_string e));
  Alcotest.(check bool) "timeouts counted" true
    (Eof_obs.Obs.counter_value bus "transport.timeouts" >= 1);
  Alcotest.(check bool) "latency accrues" true (Transport.elapsed_us transport > 0.)

let test_quantum_stop_reports_pc () =
  let board = Board.create Profiles.stm32f4_disco in
  let base = (Board.profile board).Board.flash_base in
  let engine =
    Engine.create ~board ~fault_vector:(base + 0xF00) ~entry:(fun () ->
        let rec spin () =
          Target.site (base + 0x200);
          spin ()
        in
        spin ())
  in
  let server = Openocd.create ~board ~engine () in
  let transport = Transport.create () in
  let s = connect_exn (server, transport) in
  match Session.continue_ s with
  | Ok (Session.Stopped_quantum pc) -> Alcotest.(check int) "spin pc" (base + 0x200) pc
  | Ok _ -> Alcotest.fail "expected quantum stop"
  | Error e -> Alcotest.fail (Session.error_to_string e)

let prop_decoder_frame_any_payload =
  QCheck.Test.make ~name:"decoder accepts any escaped framed payload" ~count:200
    QCheck.string (fun raw ->
      let payload = escape raw in
      let d = Rsp.Decoder.create () in
      match Rsp.Decoder.feed d (frame payload) with
      | [ Rsp.Decoder.Packet p ] -> p = payload
      | _ -> false)

let suite =
  [
    Alcotest.test_case "checksum/frame" `Quick test_checksum_frame;
    Alcotest.test_case "escape roundtrip" `Quick test_escape_roundtrip;
    Alcotest.test_case "decoder stream" `Quick test_decoder_stream;
    Alcotest.test_case "decoder bad checksum" `Quick test_decoder_bad_checksum;
    Alcotest.test_case "command roundtrip" `Quick test_command_roundtrip;
    Alcotest.test_case "command rejects" `Quick test_command_rejects;
    Alcotest.test_case "reply roundtrip" `Quick test_reply_roundtrip;
    Alcotest.test_case "session memory" `Quick test_session_memory;
    Alcotest.test_case "session breakpoint flow" `Quick test_session_breakpoint_flow;
    Alcotest.test_case "session reset/flash" `Quick test_session_reset_and_flash;
    Alcotest.test_case "transport failures" `Quick test_transport_failures;
    Alcotest.test_case "quantum stop reports pc" `Quick test_quantum_stop_reports_pc;
    QCheck_alcotest.to_alcotest prop_decoder_frame_any_payload;
  ]

let test_gpio_injection_over_monitor () =
  let board, _, server, transport = make_machine () in
  let s = connect_exn (server, transport) in
  (match Eof_hw.Gpio.configure_irq (Board.gpio board) ~pin:2 Eof_hw.Gpio.Rising with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  (match Session.inject_gpio s ~pin:2 ~level:true with
   | Ok () -> ()
   | Error e -> Alcotest.fail (Session.error_to_string e));
  Alcotest.(check (list int)) "irq latched" [ 2 ] (Eof_hw.Gpio.drain_pending (Board.gpio board));
  match Session.inject_gpio s ~pin:99 ~level:true with
  | Error { Eof_util.Eof_error.kind = Remote _; _ } -> ()
  | _ -> Alcotest.fail "bad pin accepted"

let test_monitor_unknown_command () =
  let _, _, server, _ = make_machine () in
  let packet = frame (render (Rsp.Monitor "frobnicate")) in
  Alcotest.(check string) "unknown monitor command rejected"
    ("+" ^ frame "E01") (Openocd.feed server packet)

let suite =
  suite
  @ [
      Alcotest.test_case "gpio injection over monitor" `Quick
        test_gpio_injection_over_monitor;
      Alcotest.test_case "unknown monitor command" `Quick test_monitor_unknown_command;
    ]

(* Property: every renderable command round-trips through the parser. *)
let prop_command_roundtrip =
  let cmd_gen =
    QCheck.Gen.(
      oneof
        [
          map2 (fun a l -> Rsp.Read_mem { addr = a land 0xFFFFFFF; len = l land 0xFFFF }) nat nat;
          map2
            (fun a (d : string) -> Rsp.Write_mem { addr = a land 0xFFFFFFF; data = d })
            nat (string_size (0 -- 32));
          map (fun a -> Rsp.Insert_breakpoint (a land 0xFFFFFFF)) nat;
          map (fun a -> Rsp.Remove_breakpoint (a land 0xFFFFFFF)) nat;
          return Rsp.Continue;
          return Rsp.Step;
          return Rsp.Read_registers;
          return Rsp.Halt_reason;
          map2 (fun a l -> Rsp.Flash_erase { addr = a land 0xFFFFFFF; len = l land 0xFFFFF }) nat nat;
          map2
            (fun a (d : string) -> Rsp.Flash_write { addr = a land 0xFFFFFFF; data = d })
            nat (string_size (0 -- 32));
          return Rsp.Flash_done;
          map (fun s -> Rsp.Monitor s) (string_size (1 -- 16));
          return Rsp.Kill;
        ])
  in
  QCheck.Test.make ~name:"rsp command roundtrip (generated)" ~count:300 (QCheck.make cmd_gen)
    (fun cmd ->
      match Rsp.parse_command (render cmd) with
      | Ok cmd' -> cmd = cmd'
      | Error _ -> false)

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_command_roundtrip ]

let test_read_pc_across_architectures () =
  (* The g-packet register dump must encode the PC correctly for every
     supported architecture's register numbering and endianness. *)
  List.iter
    (fun profile ->
      let board = Board.create profile in
      let site = profile.Board.flash_base + 0x123 * 4 in
      let engine =
        Engine.create ~board ~fault_vector:profile.Board.flash_base ~entry:(fun () ->
            Target.site site;
            Target.site (site + 4))
      in
      let server = Openocd.create ~board ~engine () in
      let transport = Transport.create () in
      let s = connect_exn (server, transport) in
      (match Session.set_breakpoint s site with
       | Ok () -> ()
       | Error e -> Alcotest.fail (Session.error_to_string e));
      (match Session.continue_ s with
       | Ok (Session.Stopped_breakpoint _) -> ()
       | Ok _ -> Alcotest.fail (profile.Board.name ^ ": expected a breakpoint stop")
       | Error e -> Alcotest.fail (Session.error_to_string e));
      match Session.read_pc s with
      | Ok pc -> Alcotest.(check int) profile.Board.name site pc
      | Error e -> Alcotest.fail (profile.Board.name ^ ": " ^ Session.error_to_string e))
    Profiles.[ stm32f4_disco; stm32h745_nucleo; esp32_devkitc; hifive1; qemu_mps2; qemu_pok ]

let suite =
  suite
  @ [ Alcotest.test_case "read_pc across architectures" `Quick
        test_read_pc_across_architectures ]

(* --- batched debug link: vBatch, Covlink ----------------------------- *)

(* Sub-replies as a test writes them down; the probe renders each one
   straight into its buffer with the matching [Rsp.add_sub_*]. *)
type sub =
  | Ok_
  | Err of int
  | Data of string
  | Counted of int * string
  | Stop_ of string  (* a stop-reply payload, rendered from [Rsp.Raw] *)

let render_subs subs =
  let out = Rsp.Out.create () in
  Rsp.Out.add_char out 'b';
  List.iteri
    (fun i sub ->
      if i > 0 then Rsp.Out.add_char out ';';
      match sub with
      | Ok_ -> Rsp.add_sub_ok out
      | Err n -> Rsp.add_sub_error out n
      | Data d -> Rsp.add_sub_data out d
      | Counted (count, d) -> Rsp.add_sub_counted out ~count d
      | Stop_ p -> Rsp.add_sub_stop out ~pc_reg:15 (Rsp.Raw p))
    subs;
  Rsp.Out.contents out

(* Every sub-reply of a reader, in order, as a [sub]. *)
let read_subs r =
  let rec go acc =
    match Rsp.Replies.next r with
    | Rsp.Sub_end -> List.rev acc
    | Rsp.Sub_ok -> go (Ok_ :: acc)
    | Rsp.Sub_error -> go (Err (Rsp.Replies.value r) :: acc)
    | Rsp.Sub_data -> go (Data (Rsp.Replies.data r) :: acc)
    | Rsp.Sub_counted -> go (Counted (Rsp.Replies.value r, Rsp.Replies.data r) :: acc)
    | Rsp.Sub_stop -> go (Stop_ (Rsp.Replies.data r) :: acc)
  in
  go []

let parse_subs payload =
  Result.map
    (fun r -> (Rsp.Replies.length r, read_subs r))
    (Rsp.Replies.read payload ~pos:1)

let batch_ops_of_packet payload =
  match Rsp.parse_command payload with
  | Ok (Rsp.Batch ops) -> Ok ops
  | Ok _ -> Error "parsed as another command"
  | Error e -> Error (Eof_util.Eof_error.to_string e)

let test_batch_codec_samples () =
  (* Binary data containing the wire separators ';' ':' ',' and the RSP
     specials must survive: segments are length-prefixed, not delimited. *)
  let ops =
    [|
      Rsp.B_continue;
      Rsp.B_read { addr = 0x20000000; len = 0x40 };
      Rsp.B_write { addr = 0x20000100; data = ";:,}$#*\x00\xFF" };
      Rsp.B_read_counted
        { count_addr = 0x20000200; data_addr = 0x20000204; stride = 4;
          max_count = 2048; reset = true };
      Rsp.B_read_counted
        { count_addr = 0x20002204; data_addr = 0x20002208; stride = 8;
          max_count = 1024; reset = false };
      Rsp.B_monitor "uart";
    |]
  in
  (match batch_ops_of_packet (render (Rsp.Batch ops)) with
   | Ok ops' -> Alcotest.(check bool) "ops roundtrip" true (ops = ops')
   | Error e -> Alcotest.fail e);
  let subs =
    [ Ok_; Err 0x0E; Data ";:}$#*\x01"; Counted (4096, String.make 16 ';');
      Stop_ "T05f:00400608;swbreak:;"; Stop_ "T05f:0040}608;$wbreak#;" ]
  in
  (match parse_subs (render_subs subs) with
   | Ok (n, subs') ->
     Alcotest.(check int) "reply length" (List.length subs) n;
     Alcotest.(check bool) "replies roundtrip" true (subs = subs')
   | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e));
  (* A stop sub-reply is the stop reply's payload as a binary segment,
     whether its length is worked out before it is written or not. *)
  List.iter
    (fun (reply, read_back) ->
      let payload = render_reply ~pc_reg:15 reply in
      let out = Rsp.Out.create () in
      Rsp.add_sub_stop out ~pc_reg:15 reply;
      Alcotest.(check string) "stop sub-reply"
        (Printf.sprintf "s%x:%s" (String.length payload) (escape payload))
        (Rsp.Out.contents out);
      match Rsp.Replies.read ("b" ^ Rsp.Out.contents out) ~pos:1 with
      | Ok r ->
        ignore (Rsp.Replies.next r : Rsp.sub_reply);
        Alcotest.(check bool) "stop read in place" true
          ((Rsp.Replies.stop r ~pc_reg:15 = Ok reply) = read_back)
      | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e))
    [ (Rsp.Stop { signal = 5; pc = 0x08001234; detail = "swbreak" }, true);
      (Rsp.Stop { signal = 11; pc = 0; detail = "fault:$#}*" }, true);
      (Rsp.Exited 0, true);
      (* The PC field is at least eight digits, and read to its ';'. *)
      (Rsp.Stop { signal = 2; pc = 0x1_0000_0000; detail = "quantum" }, true) ]

let prop_batch_ops_roundtrip =
  let op_gen =
    QCheck.Gen.(
      oneof
        [
          return Rsp.B_continue;
          map2
            (fun a l -> Rsp.B_read { addr = a land 0xFFFFFFF; len = l land 0xFFFF })
            nat nat;
          map2
            (fun a (d : string) -> Rsp.B_write { addr = a land 0xFFFFFFF; data = d })
            nat (string_size (0 -- 24));
          map
            (fun (ca, da, st, mx, r) ->
              Rsp.B_read_counted
                { count_addr = ca land 0xFFFFFFF; data_addr = da land 0xFFFFFFF;
                  stride = 1 + (st land 7); max_count = mx land 0xFFFF; reset = r })
            (tup5 nat nat nat nat bool);
          map (fun s -> Rsp.B_monitor s) (string_size (0 -- 16));
        ])
  in
  QCheck.Test.make ~name:"vBatch ops roundtrip (generated)" ~count:300
    (QCheck.make QCheck.Gen.(array_size (1 -- 6) op_gen))
    (fun ops -> batch_ops_of_packet (render (Rsp.Batch ops)) = Ok ops)

let prop_batch_replies_roundtrip =
  let sub_gen =
    QCheck.Gen.(
      oneof
        [
          return Ok_;
          map (fun n -> Err (n land 0xFF)) nat;
          map (fun s -> Data s) (string_size (0 -- 24));
          map2 (fun c (d : string) -> Counted (c land 0xFFFFF, d)) nat (string_size (0 -- 24));
          map (fun s -> Stop_ s) (string_size (0 -- 24));
        ])
  in
  QCheck.Test.make ~name:"vBatch replies roundtrip (generated)" ~count:300
    (QCheck.make QCheck.Gen.(list_size (1 -- 6) sub_gen))
    (fun subs -> parse_subs (render_subs subs) = Ok (List.length subs, subs))

let test_vbatch_over_server () =
  let board, _, server, transport = make_machine () in
  let s = connect_exn (server, transport) in
  let ram_base = (Board.profile board).Board.ram_base in
  let count_addr = ram_base + 0x100 in
  let data_addr = ram_base + 0x104 in
  (* Seed a counter of 3 and 5 stride-4 elements; the counted read must
     clamp to the counter, not the max. *)
  (match Session.write_u32 s ~addr:count_addr 3l with
   | Ok () -> ()
   | Error e -> Alcotest.fail (Session.error_to_string e));
  (match Session.write_mem s ~addr:data_addr "AAAABBBBCCCCDDDDEEEE" with
   | Ok () -> ()
   | Error e -> Alcotest.fail (Session.error_to_string e));
  let before = Transport.exchanges transport in
  let ops =
    [|
      Rsp.B_write { addr = ram_base; data = ";bin}$#" };
      Rsp.B_read { addr = ram_base; len = 7 };
      Rsp.B_read_counted
        { count_addr; data_addr; stride = 4; max_count = 16; reset = true };
      Rsp.B_monitor "cycles";
      Rsp.B_read { addr = 0x1; len = 4 };  (* unmapped: an error slot *)
    |]
  in
  (match Session.batch s ops with
   | Error e -> Alcotest.fail (Session.error_to_string e)
   | Ok r ->
     Alcotest.(check int) "one sub-reply per op" 5 (Rsp.Replies.length r);
     (match read_subs r with
      | [ w; rd; k; m; bad ] ->
        Alcotest.(check bool) "write ok" true (w = Ok_);
        Alcotest.(check bool) "read echoes" true (rd = Data ";bin}$#");
        (match k with
         | Counted (count, data) ->
           Alcotest.(check int) "raw counter" 3 count;
           Alcotest.(check string) "clamped data" "AAAABBBBCCCC" data
         | _ -> Alcotest.fail "expected counted reply");
        (match m with
         | Data text ->
           Alcotest.(check bool) "cycles decimal" true (int_of_string_opt text <> None)
         | _ -> Alcotest.fail "expected monitor text");
        (match bad with
         | Err _ -> ()
         | _ -> Alcotest.fail "unmapped read must yield an error slot")
      | _ -> Alcotest.fail "wrong reply arity"));
  Alcotest.(check int) "five ops, one exchange" 1 (Transport.exchanges transport - before);
  (* reset=true must have zeroed the counter server-side. *)
  match Session.read_u32 s ~addr:count_addr with
  | Ok v -> Alcotest.(check int32) "counter reset" 0l v
  | Error e -> Alcotest.fail (Session.error_to_string e)

(* The session renders the ops it is handed at every call: each batch
   answers its own ops, with or without a leading write. *)
let test_batch_op_lists () =
  let board, _, server, transport = make_machine () in
  let s = connect_exn (server, transport) in
  let ram_base = (Board.profile board).Board.ram_base in
  let read_a = Rsp.B_read { addr = ram_base; len = 2 } in
  let read_b = Rsp.B_read { addr = ram_base + 2; len = 2 } in
  let write addr data = Rsp.B_write { addr; data } in
  let subs ops =
    match Session.batch s ops with
    | Ok r -> read_subs r
    | Error e -> Alcotest.fail (Session.error_to_string e)
  in
  let check what want got = Alcotest.(check bool) what true (want = got) in
  check "write, then read a" [ Ok_; Data "AB" ] (subs [| write ram_base "ABCD"; read_a |]);
  check "read b" [ Data "CD" ] (subs [| read_b |]);
  check "read a again" [ Data "AB" ] (subs [| read_a |]);
  check "another write, read a" [ Ok_; Data "WX" ] (subs [| write ram_base "WXYZ"; read_a |]);
  check "a write alone" [ Ok_ ] (subs [| write (ram_base + 2) "12" |]);
  check "read b sees it" [ Data "12" ] (subs [| read_b |])

(* A vBatch is checked whole before any op runs: one malformed op after
   a continue and a read gets the empty reply, and the board's cycles, PC
   and RAM are as they were. Ops that parse but fail at run time fail in
   their own slot: an out-of-range read in the middle answers E0e there
   and its neighbours still answer. *)
let test_vbatch_all_or_nothing () =
  let board, engine, server, _ = make_machine () in
  let ram = Board.ram board in
  let ram_base = (Board.profile board).Board.ram_base in
  let ram_size = (Board.profile board).Board.ram_size in
  (match Board.write_ram board ~addr:ram_base "ABCDEFGH" with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "seed write");
  let state () =
    ( Clock.cycles (Board.clock board),
      Engine.pc engine,
      Memory.read_bytes ram ~addr:ram_base ~len:ram_size )
  in
  let before = state () in
  List.iter
    (fun malformed ->
      let payload = Printf.sprintf "vBatch:c;r%x,4;%s" ram_base malformed in
      Alcotest.(check string) (malformed ^ ": empty reply") ("+" ^ frame "")
        (Openocd.feed server (frame payload));
      Alcotest.(check bool) (malformed ^ ": nothing ran") true (state () = before))
    [ "x"; "r1"; "k1,2,3"; "w0,4:ab"; "m9:uart"; "r1_0,4"; "" ];
  let payload =
    render
      (Rsp.Batch
         [| Rsp.B_read { addr = ram_base; len = 4 };
            Rsp.B_read { addr = 0x1; len = 4 };
            Rsp.B_read { addr = ram_base + 4; len = 4 } |])
  in
  let reply = Openocd.feed server (frame payload) in
  Alcotest.(check string) "error in its own slot" ("+" ^ frame "bd4:ABCD;E0e;d4:EFGH") reply

let test_counted_read_big_endian () =
  (* All stock profiles are little-endian; a counted read must decode the
     counter with the target's byte order, so exercise a big-endian one. *)
  let profile = { Profiles.stm32f4_disco with Board.name = "be-test"; arch = Arch.powerpc } in
  let board = Board.create profile in
  let engine =
    Engine.create ~board ~fault_vector:(profile.Board.flash_base + 0xF00)
      ~entry:(fun () -> Target.site (profile.Board.flash_base + 0x100))
  in
  let server = Openocd.create ~board ~engine () in
  let transport = Transport.create () in
  let s = connect_exn (server, transport) in
  let count_addr = profile.Board.ram_base + 0x40 in
  let data_addr = profile.Board.ram_base + 0x44 in
  (match Session.write_u32 s ~addr:count_addr 2l with
   | Ok () -> ()
   | Error e -> Alcotest.fail (Session.error_to_string e));
  (match Session.write_mem s ~addr:data_addr "12345678" with
   | Ok () -> ()
   | Error e -> Alcotest.fail (Session.error_to_string e));
  match
    Session.batch s
      [| Rsp.B_read_counted { count_addr; data_addr; stride = 4; max_count = 8; reset = false } |]
  with
  | Ok r ->
    (match read_subs r with
     | [ Counted (count, data) ] ->
       Alcotest.(check int) "be counter" 2 count;
       Alcotest.(check string) "be data" "12345678" data
     | _ -> Alcotest.fail "expected one counted reply")
  | Error e -> Alcotest.fail (Session.error_to_string e)

let test_covlink_continue_and_drain () =
  let board, _, server, transport = make_machine () in
  let s = connect_exn (server, transport) in
  let profile = Board.profile board in
  let ram_base = profile.Board.ram_base in
  let layout = { Eof_cov.Sancov.Layout.base = ram_base + 0x800; capacity_records = 8 } in
  let module L = Eof_cov.Sancov.Layout in
  (* Pre-populate the coverage area the way target-side hooks would. *)
  let le32 v =
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 (Int32.of_int v);
    Bytes.to_string b
  in
  let ok = function Ok x -> x | Error e -> Alcotest.fail (Session.error_to_string e) in
  let records = L.records layout and cmp = L.cmp_ring layout in
  ok (Session.write_mem s ~addr:records.count_addr (le32 3));
  ok (Session.write_mem s ~addr:records.data_addr (le32 10 ^ le32 20 ^ le32 30));
  ok (Session.write_mem s ~addr:cmp.count_addr (le32 2));
  ok (Session.write_mem s ~addr:cmp.data_addr
        (le32 5 ^ le32 9 ^ le32 700 ^ le32 7));
  let cl = Covlink.create ~session:s ~layout in
  ok (Session.set_breakpoint s (profile.Board.flash_base + 0x104));
  let before = Transport.exchanges transport in
  (match Covlink.continue_and_drain cl ~want_cmp:true with
   | Error e -> Alcotest.fail (Session.error_to_string e)
   | Ok (stop, d) ->
     (match stop with
      | Session.Stopped_breakpoint pc ->
        Alcotest.(check int) "stop pc" (profile.Board.flash_base + 0x104) pc
      | _ -> Alcotest.fail "expected breakpoint stop");
     Alcotest.(check int) "records drained" 3 d.Covlink.n_records;
     let records = Array.make 3 0 in
     ignore
       (Eof_cov.Sancov.decode_records_into ~endianness:Arch.Little ~count:3
          d.Covlink.records_raw records
         : int);
     Alcotest.(check (array int)) "records decode" [| 10; 20; 30 |] records;
     Alcotest.(check int) "cmp pairs drained" 2 d.Covlink.n_cmp;
     let a = Array.make 2 0L and b = Array.make 2 0L in
     Alcotest.(check int) "cmp pairs decoded" 2
       (Eof_cov.Sancov.decode_cmp_ring_into ~endianness:Arch.Little ~count:2
          d.Covlink.cmp_raw ~a ~b);
     Alcotest.(check (array int64)) "cmp decode a" [| 5L; 700L |] a;
     Alcotest.(check (array int64)) "cmp decode b" [| 9L; 7L |] b;
     Alcotest.(check string) "uart fused into drain" "hello from target\n" d.Covlink.log);
  Alcotest.(check int) "continue+full drain = one exchange" 1
    (Transport.exchanges transport - before);
  (* Both target-side counters were reset and the UART emptied. *)
  Alcotest.(check int32) "write index reset" 0l
    (ok (Session.read_u32 s ~addr:records.count_addr));
  Alcotest.(check int32) "cmp count reset" 0l
    (ok (Session.read_u32 s ~addr:cmp.count_addr));
  Alcotest.(check string) "no log left" "" (ok (Session.drain_uart s))

let suite =
  suite
  @ [
      Alcotest.test_case "batch codec samples" `Quick test_batch_codec_samples;
      QCheck_alcotest.to_alcotest prop_batch_ops_roundtrip;
      QCheck_alcotest.to_alcotest prop_batch_replies_roundtrip;
      Alcotest.test_case "vbatch over server" `Quick test_vbatch_over_server;
      Alcotest.test_case "vbatch all or nothing" `Quick test_vbatch_all_or_nothing;
      Alcotest.test_case "batch op lists" `Quick test_batch_op_lists;
      Alcotest.test_case "counted read big-endian" `Quick test_counted_read_big_endian;
      Alcotest.test_case "covlink continue+drain" `Quick test_covlink_continue_and_drain;
    ]
