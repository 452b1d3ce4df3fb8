(* Decoder totality: every parser of bytes from the other side of a link
   or a file returns a typed result and never raises. Inputs are random
   strings and byte-level mutations of valid encodings, so the sweep gets
   past each decoder's first checks. An exception escapes the property
   and QCheck reports it with the shrunk input. *)

open Eof_hw
open Eof_debug
open Eof_agent
open Eof_obs

let total f s = match f s with Ok _ | Error _ -> true

let commands =
  Rsp.
    [
      Q_supported "PacketSize=4000;vBatch+";
      Read_mem { addr = 0x2000_0000; len = 64 };
      Write_mem { addr = 0x2000_0010; data = "\x00\x01\xff$#}*" };
      Insert_breakpoint 0x0800_0104;
      Remove_breakpoint 0x0800_0104;
      Continue;
      Step;
      Read_registers;
      Halt_reason;
      Flash_erase { addr = 0x0800_0000; len = 0x4000 };
      Flash_write { addr = 0x0800_0000; data = "image}#$*bytes" };
      Flash_done;
      Monitor "reset halt";
      Kill;
      Snapshot_save;
      Snapshot_restore;
    ]

let batch_ops =
  Rsp.
    [
      B_continue;
      B_read { addr = 0x2000_0000; len = 16 };
      B_write { addr = 0x2000_0040; data = "\x00;}$" };
      B_read_counted
        { count_addr = 0x2000_0800; data_addr = 0x2000_0804; stride = 4; max_count = 64; reset = true };
      B_monitor "uart drain";
    ]

let batch_replies =
  Rsp.
    [
      Br_ok;
      Br_data "raw;bytes}";
      Br_counted { count = 70; data = "0123456789abcdef" };
      Br_stop "T05thread:01;";
      Br_error 14;
    ]

let replies =
  Rsp.
    [
      Ok_reply;
      Error_reply 1;
      Hex_data "\x00\x7f\xff";
      Stop { signal = 5; pc = 0x0800_0104; detail = "swbreak" };
      Stop { signal = 2; pc = 0x0800_0200; detail = "quantum" };
      Exited 0;
      Supported "PacketSize=4000";
      Raw "monitor output";
    ]

let programs =
  Wire.
    [
      [];
      [ { api_index = 3; args = [ W_int 42L; W_str "hello"; W_int (-1L) ] } ];
      [
        { api_index = 0; args = [ W_int Int64.max_int ] };
        { api_index = 17; args = [ W_res 0; W_str ""; W_str (String.make 40 '\xfe') ] };
        { api_index = 0xFFFF; args = [] };
      ];
    ]

let trace_lines =
  let line ?board ?tenant t ev = Obs.event_to_json ~t ~board ~tenant ev in
  Obs.Event.
    [
      line 0.0015 (Payload { iteration = 7; status = "crashed"; new_edges = 3 });
      line ~board:2 1.25 (Stop { kind = "quantum"; pc = 0x0800_0200 });
      line ~tenant:"alice" 3.5 (Crash_found { kind = "panic"; operation = "k_msgq_get \"q\"" });
      line 0.0 (Span { name = "boot"; dur_us = 12.5 });
      line 2.0 (Seed_scheduled { energy = 4; frontier = true });
    ]

(* Byte-level mutations, several per input: flip, overwrite with a
   delimiter, insert, delete, truncate, duplicate a span. *)
let mutate_gen seed =
  let open QCheck.Gen in
  let delims = "$#}*:;,+-\x03\"{}\\0fF" in
  let step s =
    let n = String.length s in
    if n = 0 then map (String.make 1) char
    else
      int_bound (n - 1) >>= fun i ->
      char >>= fun c ->
      int_bound (String.length delims - 1) >>= fun d ->
      int_bound 5 >|= function
      | 0 -> String.mapi (fun j x -> if j = i then Char.chr (Char.code x lxor 0x5a) else x) s
      | 1 -> String.mapi (fun j x -> if j = i then delims.[d] else x) s
      | 2 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
      | 3 -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
      | 4 -> String.sub s 0 i
      | _ -> String.sub s 0 i ^ String.sub s i (n - i) ^ String.sub s i (n - i)
  in
  let rec steps k s = if k = 0 then return s else step s >>= steps (k - 1) in
  int_range 1 4 >>= fun k -> steps k seed

let input_arb seeds =
  let open QCheck.Gen in
  let seeds = Array.of_list seeds in
  QCheck.make ~print:(Printf.sprintf "%S")
    (frequency
       [
         (1, string_size (0 -- 64));
         (1, oneofa seeds);
         (4, oneofa seeds >>= mutate_gen);
       ])

let prop name seeds check =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:("total: " ^ name) ~count:10_000 (input_arb seeds) check)

(* A retired binary [X] write stays in the sweep: it must decode to a
   typed error, never raise. *)
let rendered_commands =
  ("X20000020,6:" ^ Rsp.escape_binary "}$#*\x00\xff")
  :: Rsp.render_command (Rsp.Batch batch_ops)
  :: List.map Rsp.render_command commands

let pc_reg = 15

let rendered_replies = List.map (Rsp.render_reply ~pc_reg) replies

let encoded_programs endianness =
  List.map
    (fun p ->
      match Wire.encode ~endianness p with
      | Ok s -> s
      | Error e -> failwith ("seed program rejected: " ^ e))
    programs

(* Feed in two chunks so partial-frame buffering is exercised too. *)
let feed_decoder s =
  let d = Rsp.Decoder.create () in
  let cut = String.length s / 2 in
  ignore (Rsp.Decoder.feed d (String.sub s 0 cut));
  ignore (Rsp.Decoder.feed d (String.sub s cut (String.length s - cut)));
  true

(* Found by the sweep: a forged segment length sized the reassembly
   buffer before any byte was read, so one short packet raised
   Out_of_memory. *)
let test_forged_segment_length () =
  let forged = "K;da:raw;bytes}];k46,100123456789aa:raw;bytes}];k46,100123456789a" in
  Alcotest.(check bool) "batch replies" true (Result.is_error (Rsp.parse_batch_replies forged));
  Alcotest.(check bool) "batch ops" true
    (Result.is_error (Rsp.parse_batch_ops "w20000040,7fffffffffff:}]"))

(* RSP numbers are hex digits and nothing else, up to max_int: OCaml's
   '_' separator and "0x" prefix are not hex, and a field past max_int is
   an error instead of a wrapped address. *)
let test_rsp_numbers_strict () =
  let rejected what r = Alcotest.(check bool) what true (Result.is_error r) in
  rejected "'_' in an address" (Rsp.parse_command "m1_0,4");
  rejected "'_' in a reply code" (Rsp.parse_reply ~pc_reg "E1_");
  rejected "batch address past max_int" (Rsp.parse_batch_ops "r10000000000000000,4");
  rejected "batch length past max_int" (Rsp.parse_batch_ops "r0,4000000000000000");
  List.iter
    (fun s -> rejected (Printf.sprintf "hex field %S" s) (Rsp.parse_hex_int s))
    [ ""; "1_0"; "0x10"; "+1"; "-1"; " 1"; "4000000000000000"; "10000000000000000" ];
  Alcotest.(check (result int string)) "max_int" (Ok max_int)
    (Rsp.parse_hex_int "3fffffffffffffff");
  Alcotest.(check (result int string)) "mixed case" (Ok 0xdeadbeef) (Rsp.parse_hex_int "DeadBEEF");
  Alcotest.(check bool) "batch read at max_int" true
    (Rsp.parse_batch_ops "r3fffffffffffffff,4"
    = Ok [ Rsp.B_read { addr = max_int; len = 4 } ])

(* Every debug packet that names memory outside RAM and flash gets an
   [E] reply and leaves both unchanged: addresses and lengths at 0, at
   each region's end, at max_int, and pairs whose sum passes max_int. *)
let test_probe_range_sweep () =
  let board = Board.create Profiles.stm32f4_disco in
  let p = Board.profile board in
  let engine =
    Eof_exec.Engine.create ~board ~fault_vector:p.Board.flash_base ~entry:(fun () -> ())
  in
  let probe = Openocd.create ~board ~engine () in
  let ram = Board.ram board and flash = Flash.mem (Board.flash board) in
  let ram_base = p.Board.ram_base and ram_end = p.Board.ram_base + p.Board.ram_size in
  let flash_base = p.Board.flash_base in
  let flash_end = p.Board.flash_base + p.Board.flash_size in
  (* A nonzero counter for the counted reads to multiply out. *)
  Memory.write_u32 ram ram_base 8l;
  let contents () =
    ( Memory.read_bytes ram ~addr:ram_base ~len:p.Board.ram_size,
      Memory.read_bytes flash ~addr:flash_base ~len:p.Board.flash_size,
      Memory.mutations ram,
      Memory.mutations flash )
  in
  let before = contents () in
  let ranges =
    [ (0, 0); (0, 1); (0, max_int); (ram_end, 1); (ram_end - 1, 2); (ram_base, p.Board.ram_size + 1);
      (flash_end, 1); (flash_end - 1, 2); (flash_base, p.Board.flash_size + 1); (max_int, 0);
      (max_int, 1); (max_int - 1, 2); (max_int - 3, 4); (ram_base, max_int);
      (ram_base + 4, max_int - ram_base); (flash_base, max_int - flash_base + 1) ]
  in
  let writes =
    [ (0, "\x00"); (ram_end, "\x00"); (ram_end - 1, "\x00\x00"); (flash_end, "\x00");
      (max_int, "\x00"); (max_int - 1, "\x00\x00"); (max_int - 3, "\x00\x00\x00\x00") ]
  in
  let counted =
    List.map
      (fun addr -> (addr, ram_base, 4))
      [ 0; ram_end; ram_end - 2; flash_end; flash_end - 2; max_int; max_int - 3 ]
    @ [ (ram_base, ram_end - 4, 4); (ram_base, max_int - 3, 4); (ram_base, ram_base, max_int);
        (ram_base, ram_base, (max_int / 8) + 1) ]
  in
  let batch op = Rsp.Batch [ op ] in
  let commands =
    List.concat_map
      (fun (addr, len) ->
        [ Rsp.Read_mem { addr; len }; batch (Rsp.B_read { addr; len });
          Rsp.Flash_erase { addr; len } ])
      ranges
    @ List.concat_map
        (fun (addr, data) ->
          [ Rsp.Write_mem { addr; data }; batch (Rsp.B_write { addr; data });
            Rsp.Flash_write { addr; data } ])
        writes
    (* Debug writes reach RAM only; flash takes vFlashWrite. *)
    @ [ Rsp.Write_mem { addr = flash_base; data = "\x00" };
        batch (Rsp.B_write { addr = flash_base; data = "\x00" }) ]
    @ List.map
        (fun (count_addr, data_addr, stride) ->
          batch
            (Rsp.B_read_counted { count_addr; data_addr; stride; max_count = 8; reset = false }))
        counted
  in
  List.iter
    (fun cmd ->
      let payload = Rsp.render_command cmd in
      let expected =
        match cmd with Rsp.Batch _ -> "bE0e" | _ -> "E0e"
      in
      match Openocd.feed probe (Rsp.make_frame payload) with
      | reply when reply = "+" ^ Rsp.make_frame expected -> ()
      | reply -> Alcotest.failf "%S: reply %S, expected %S" payload reply expected
      | exception e -> Alcotest.failf "%S raised %s" payload (Printexc.to_string e))
    commands;
  Alcotest.(check bool) "RAM and flash unchanged" true (contents () = before)

(* --- files: the hub journal and saved corpora -------------------------- *)

module Protocol = Eof_hub.Protocol

let journal_msgs =
  Protocol.
    [
      Accept { campaign = 3; tenant = "alice" };
      Reject { tenant = "bob"; reason = "tenant already has a campaign" };
      Corpus_push { campaign = 3; shard = 1; epoch = 2; progs = [ "\x01\x02\xff"; "" ] };
      Status_req;
      Cancel { campaign = 3 };
      Worker_hello { name = "wa" };
      Campaign_done { campaign = 3; tenant = "alice"; digest = "crc=0a324d6a" };
    ]

let rec is_prefix got full =
  match (got, full) with
  | [], _ -> true
  | x :: got, y :: full -> x = y && is_prefix got full
  | _ :: _, [] -> false

let with_temp_file f =
  let path = Filename.temp_file "eof-decoders" ".bin" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      f (fun bytes ->
          Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
          path))

(* A torn tail at any byte offset replays a prefix that only grows with
   the offset, and is the whole history only at full length; a
   corrupted byte anywhere replays a prefix or refuses the journal. *)
let test_journal_replay_total () =
  let full = String.concat "" (List.map Protocol.encode journal_msgs) in
  let n = List.length journal_msgs in
  with_temp_file @@ fun write ->
  let replay bytes = Eof_hub.Journal.replay (write bytes) in
  let last = ref 0 in
  for cut = 0 to String.length full do
    match replay (String.sub full 0 cut) with
    | Error e -> Alcotest.failf "cut at %d: %s" cut e
    | Ok got ->
      let k = List.length got in
      if not (is_prefix got journal_msgs) then Alcotest.failf "cut at %d: not a prefix" cut;
      if k < !last then Alcotest.failf "cut at %d: prefix shrank from %d to %d" cut !last k;
      if (k = n) <> (cut = String.length full) then
        Alcotest.failf "cut at %d: %d of %d frames" cut k n;
      last := k
  done;
  List.iter
    (fun mask ->
      String.iteri
        (fun i c ->
          let flipped = Bytes.of_string full in
          Bytes.set flipped i (Char.chr (Char.code c lxor mask));
          match replay (Bytes.to_string flipped) with
          | Error _ -> ()
          | Ok got ->
            if not (is_prefix got journal_msgs) then
              Alcotest.failf "flip 0x%02x at %d: not a prefix" mask i)
        full)
    [ 0x01; 0xff ]

(* A saved corpus loads back to the programs saved, and random or
   byte-mutated corpus files load to a result, never an exception. *)
let test_corpus_io_total () =
  let _, table, spec = Lazy.force Test_core.zephyr_env in
  let gen = Test_core.make_gen 33L in
  let progs = List.init 6 (fun _ -> Eof_core.Gen.generate gen ~max_len:6) in
  with_temp_file @@ fun write ->
  let path = write "" in
  (match Eof_core.Corpus_io.save ~path progs with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  (match Eof_core.Corpus_io.load ~path ~spec ~table with
   | Error e -> Alcotest.fail e
   | Ok (loaded, skipped) ->
     Alcotest.(check int) "none skipped" 0 skipped;
     Alcotest.(check (list int)) "programs round-trip"
       (List.map Eof_core.Prog.hash progs)
       (List.map Eof_core.Prog.hash loaded));
  let saved = In_channel.with_open_bin path In_channel.input_all in
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"total: Corpus_io.load" ~count:2_000 (input_arb [ saved ])
       (fun text ->
         match Eof_core.Corpus_io.load ~path:(write text) ~spec ~table with
         | Ok _ | Error _ -> true))

let suite =
  [
    Alcotest.test_case "forged segment length" `Quick test_forged_segment_length;
    Alcotest.test_case "rsp numbers are strict hex" `Quick test_rsp_numbers_strict;
    Alcotest.test_case "probe range sweep" `Quick test_probe_range_sweep;
    Alcotest.test_case "Journal.replay at every offset" `Quick test_journal_replay_total;
    Alcotest.test_case "Corpus_io save, load and mutations" `Quick test_corpus_io_total;
    prop "Rsp.parse_command" rendered_commands (total Rsp.parse_command);
    prop "Rsp.parse_reply" rendered_replies (total (Rsp.parse_reply ~pc_reg));
    prop "Rsp.parse_batch_ops" [ Rsp.render_batch_ops batch_ops ] (total Rsp.parse_batch_ops);
    prop "Rsp.parse_batch_replies"
      [ Rsp.render_batch_replies batch_replies ]
      (total (Rsp.parse_batch_replies ?pos:None));
    prop "Rsp.unescape_binary"
      (List.map Rsp.escape_binary [ "plain"; "$#}*"; "\x00\xff}}" ])
      (total Rsp.unescape_binary);
    prop "Rsp.Decoder.feed"
      ("+" :: "-" :: "\x03" :: List.map Rsp.make_frame rendered_commands)
      feed_decoder;
    prop "Wire.decode (little-endian)" (encoded_programs Arch.Little)
      (total (Wire.decode ~endianness:Arch.Little));
    prop "Wire.decode (big-endian)" (encoded_programs Arch.Big)
      (total (Wire.decode ~endianness:Arch.Big));
    prop "Trace.parse_line" trace_lines (total Trace.parse_line);
  ]
