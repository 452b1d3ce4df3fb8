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

(* The RSP command codec as it was before every field went through the
   cursor: Printf rendering, [make_frame], and the split-based parser.
   Kept as the reference model the codec property compares against. The
   [vBatch] op parser follows the wire grammar byte by byte. *)
module Ref = struct
  let hex_nibble c = Option.value (Eof_util.Hex.to_nibble c) ~default:16

  let checksum s = String.fold_left (fun acc c -> (acc + Char.code c) land 0xFF) 0 s

  let make_frame payload = Printf.sprintf "$%s#%02x" payload (checksum payload)

  let escape_binary s =
    let buf = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '$' | '#' | '}' | '*' ->
          Buffer.add_char buf '}';
          Buffer.add_char buf (Char.chr (Char.code c lxor 0x20))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let unescape_binary s =
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let rec go i =
      if i >= n then Ok (Buffer.contents buf)
      else if s.[i] = '}' then
        if i + 1 >= n then Error "dangling escape at end of payload"
        else begin
          Buffer.add_char buf (Char.chr (Char.code s.[i + 1] lxor 0x20));
          go (i + 2)
        end
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
    in
    go 0

  let rec hex_digits s i stop acc =
    if i = stop then acc
    else
      let d = hex_nibble s.[i] in
      if d > 15 || acc > max_int lsr 4 then -1 else hex_digits s (i + 1) stop ((acc lsl 4) lor d)

  let parse_hex_int s =
    let n = String.length s in
    match if n = 0 then -1 else hex_digits s 0 n 0 with
    | -1 -> Error (if n = 0 then "empty hex number" else Printf.sprintf "bad hex number %S" s)
    | v -> Ok v

  let split2 sep s =
    match String.index_opt s sep with
    | Some i -> Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | None -> None

  let ( let* ) = Result.bind

  let parse_addr_len s =
    match split2 ',' s with
    | None -> Error (Printf.sprintf "expected addr,len in %S" s)
    | Some (a, l) ->
      let* addr = parse_hex_int a in
      let* len = parse_hex_int l in
      Ok (addr, len)

  let parse_breakpoint s =
    match String.split_on_char ',' s with
    | [ "0"; addr; _kind ] -> parse_hex_int addr
    | _ -> Error (Printf.sprintf "unsupported breakpoint spec %S" s)

  exception Bad

  (* The ops of a [vBatch:] payload body, every one read before any is
     returned. *)
  let batch_ops s =
    let n = String.length s and pos = ref 0 in
    let hex () =
      let start = !pos in
      while !pos < n && hex_nibble s.[!pos] <= 15 do
        incr pos
      done;
      match parse_hex_int (String.sub s start (!pos - start)) with Ok v -> v | Error _ -> raise Bad
    in
    let expect ch = if !pos < n && s.[!pos] = ch then incr pos else raise Bad in
    let segment len =
      let buf = Buffer.create 16 in
      for _ = 1 to len do
        if !pos >= n then raise Bad;
        if s.[!pos] = '}' then begin
          if !pos + 1 >= n then raise Bad;
          Buffer.add_char buf (Char.chr (Char.code s.[!pos + 1] lxor 0x20));
          pos := !pos + 2
        end
        else begin
          Buffer.add_char buf s.[!pos];
          incr pos
        end
      done;
      Buffer.contents buf
    in
    let op () =
      let ch = s.[!pos] in
      incr pos;
      match ch with
      | 'c' -> Rsp.B_continue
      | 'r' ->
        let addr = hex () in
        expect ',';
        let len = hex () in
        Rsp.B_read { addr; len }
      | 'w' ->
        let addr = hex () in
        expect ',';
        let len = hex () in
        expect ':';
        let data = segment len in
        Rsp.B_write { addr; data }
      | 'k' ->
        let count_addr = hex () in
        expect ',';
        let data_addr = hex () in
        expect ',';
        let stride = hex () in
        expect ',';
        let max_count = hex () in
        expect ',';
        let reset = !pos < n && s.[!pos] = 'r' in
        if not (reset || (!pos < n && s.[!pos] = 'n')) then raise Bad;
        incr pos;
        Rsp.B_read_counted { count_addr; data_addr; stride; max_count; reset }
      | 'm' ->
        let len = hex () in
        expect ':';
        Rsp.B_monitor (segment len)
      | _ -> raise Bad
    in
    match
      if n = 0 then raise Bad;
      let first = op () in
      let ops = ref [ first ] in
      while !pos < n do
        expect ';';
        if !pos >= n then raise Bad;
        let next = op () in
        ops := next :: !ops
      done;
      Array.of_list (List.rev !ops)
    with
    | ops -> Ok ops
    | exception Bad -> Error "bad batch"

  let parse_command payload : (Rsp.command, string) result =
    if payload = "" then Error "empty packet"
    else
      let rest () = String.sub payload 1 (String.length payload - 1) in
      let has_prefix p =
        String.length payload >= String.length p
        && String.sub payload 0 (String.length p) = p
      in
      let after p = String.sub payload (String.length p) (String.length payload - String.length p) in
      match payload.[0] with
      | 'q' ->
        if payload = "qSupported" then Ok (Rsp.Q_supported "")
        else if has_prefix "qSupported:" then Ok (Rsp.Q_supported (after "qSupported:"))
        else if has_prefix "qRcmd," then
          (match Eof_util.Hex.decode (after "qRcmd,") with
           | Ok cmd -> Ok (Rsp.Monitor cmd)
           | Error e -> Error ("qRcmd: " ^ e))
        else Error (Printf.sprintf "unsupported query %S" payload)
      | 'm' ->
        let* addr, len = parse_addr_len (rest ()) in
        Ok (Rsp.Read_mem { addr; len })
      | 'M' ->
        (match split2 ':' (rest ()) with
         | None -> Error "M: missing data"
         | Some (range, hexdata) ->
           let* addr, len = parse_addr_len range in
           (match Eof_util.Hex.decode hexdata with
            | Error e -> Error ("M: " ^ e)
            | Ok data ->
              if String.length data <> len then Error "M: length mismatch"
              else Ok (Rsp.Write_mem { addr; data })))
      | 'Z' ->
        let* addr = parse_breakpoint (rest ()) in
        Ok (Rsp.Insert_breakpoint addr)
      | 'z' ->
        let* addr = parse_breakpoint (rest ()) in
        Ok (Rsp.Remove_breakpoint addr)
      | 'Q' ->
        if payload = "QSnapshot:save" then Ok Rsp.Snapshot_save
        else if payload = "QSnapshot:restore" then Ok Rsp.Snapshot_restore
        else Error (Printf.sprintf "unsupported set packet %S" payload)
      | 'c' when payload = "c" -> Ok Rsp.Continue
      | 's' when payload = "s" -> Ok Rsp.Step
      | 'g' when payload = "g" -> Ok Rsp.Read_registers
      | '?' when payload = "?" -> Ok Rsp.Halt_reason
      | 'k' when payload = "k" -> Ok Rsp.Kill
      | 'v' ->
        if has_prefix "vFlashErase:" then
          let* addr, len = parse_addr_len (after "vFlashErase:") in
          Ok (Rsp.Flash_erase { addr; len })
        else if has_prefix "vFlashWrite:" then
          (match split2 ':' (after "vFlashWrite:") with
           | None -> Error "vFlashWrite: missing data"
           | Some (a, escaped) ->
             let* addr = parse_hex_int a in
             (match unescape_binary escaped with
              | Error e -> Error ("vFlashWrite: " ^ e)
              | Ok data -> Ok (Rsp.Flash_write { addr; data })))
        else if payload = "vFlashDone" then Ok Rsp.Flash_done
        else if has_prefix "vBatch:" then
          Result.map (fun ops -> Rsp.Batch ops) (batch_ops (after "vBatch:"))
        else Error (Printf.sprintf "unsupported v-packet %S" payload)
      | _ -> Error (Printf.sprintf "unsupported packet %S" payload)

  let render_batch_op = function
    | Rsp.B_continue -> "c"
    | Rsp.B_read { addr; len } -> Printf.sprintf "r%x,%x" addr len
    | Rsp.B_write { addr; data } ->
      Printf.sprintf "w%x,%x:%s" addr (String.length data) (escape_binary data)
    | Rsp.B_read_counted { count_addr; data_addr; stride; max_count; reset } ->
      Printf.sprintf "k%x,%x,%x,%x,%c" count_addr data_addr stride max_count
        (if reset then 'r' else 'n')
    | Rsp.B_monitor cmd -> Printf.sprintf "m%x:%s" (String.length cmd) (escape_binary cmd)

  let render_command = function
    | Rsp.Q_supported "" -> "qSupported"
    | Rsp.Q_supported features -> "qSupported:" ^ features
    | Rsp.Read_mem { addr; len } -> Printf.sprintf "m%x,%x" addr len
    | Rsp.Write_mem { addr; data } ->
      Printf.sprintf "M%x,%x:%s" addr (String.length data) (Eof_util.Hex.encode data)
    | Rsp.Insert_breakpoint addr -> Printf.sprintf "Z0,%x,2" addr
    | Rsp.Remove_breakpoint addr -> Printf.sprintf "z0,%x,2" addr
    | Rsp.Continue -> "c"
    | Rsp.Step -> "s"
    | Rsp.Read_registers -> "g"
    | Rsp.Halt_reason -> "?"
    | Rsp.Kill -> "k"
    | Rsp.Flash_erase { addr; len } -> Printf.sprintf "vFlashErase:%x,%x" addr len
    | Rsp.Flash_write { addr; data } ->
      Printf.sprintf "vFlashWrite:%x:%s" addr (escape_binary data)
    | Rsp.Flash_done -> "vFlashDone"
    | Rsp.Monitor cmd -> "qRcmd," ^ Eof_util.Hex.encode cmd
    | Rsp.Batch ops ->
      "vBatch:" ^ String.concat ";" (List.map render_batch_op (Array.to_list ops))
    | Rsp.Snapshot_save -> "QSnapshot:save"
    | Rsp.Snapshot_restore -> "QSnapshot:restore"
end

(* A command's payload, and its frame, as the session renders them. *)
let render cmd =
  let out = Rsp.Out.create () in
  Rsp.add_command out cmd;
  Rsp.Out.contents out

let frame_command cmd =
  let out = Rsp.Out.create () in
  Rsp.Out.open_frame out;
  Rsp.add_command out cmd;
  Rsp.Out.close_frame out;
  Rsp.Out.contents out

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
    [|
      B_continue;
      B_read { addr = 0x2000_0000; len = 16 };
      B_write { addr = 0x2000_0040; data = "\x00;}$" };
      B_read_counted
        { count_addr = 0x2000_0800; data_addr = 0x2000_0804; stride = 4; max_count = 64; reset = true };
      B_monitor "uart drain";
    |]

(* A batch reply with one sub-reply of each kind, as the probe renders
   it. *)
let batch_reply =
  let out = Rsp.Out.create () in
  Rsp.Out.add_char out 'b';
  Rsp.add_sub_ok out;
  Rsp.Out.add_char out ';';
  Rsp.add_sub_data out "raw;bytes}";
  Rsp.Out.add_char out ';';
  Rsp.add_sub_counted out ~count:70 "0123456789abcdef";
  Rsp.Out.add_char out ';';
  Rsp.add_sub_stop out ~pc_reg:15 (Rsp.Stop { signal = 5; pc = 0x0800_0104; detail = "swbreak" });
  Rsp.Out.add_char out ';';
  Rsp.add_sub_error out 14;
  Rsp.Out.contents out

(* Read a batch reply to its end, through every accessor that applies
   to each sub-reply. *)
let read_all_replies s =
  match Rsp.Replies.read s ~pos:1 with
  | Error _ -> true
  | Ok r ->
    let rec go () =
      match Rsp.Replies.next r with
      | Rsp.Sub_end -> true
      | Rsp.Sub_ok | Rsp.Sub_error -> ignore (Rsp.Replies.value r : int); go ()
      | Rsp.Sub_data | Rsp.Sub_counted -> ignore (Rsp.Replies.data r : string); go ()
      | Rsp.Sub_stop ->
        ignore (Rsp.Replies.stop r ~pc_reg:15 : (Rsp.reply, _) result);
        go ()
    in
    go ()

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

(* --- the command codec against its reference model --------------------- *)

(* Small, 32-bit and any int, negative ones too (rendered as Printf's
   "%x" renders them). *)
let int_gen = QCheck.Gen.(oneof [ int_bound 0xFF; map (fun n -> n land 0xFFFF_FFFF) nat; int ])

(* Binary data rich in the bytes that must be escaped. *)
let data_gen =
  QCheck.Gen.(
    string_size ~gen:(frequency [ (3, char); (1, oneofl [ '$'; '#'; '}'; '*' ]) ]) (0 -- 24))

let batch_op_gen =
  let open QCheck.Gen in
  oneof
    [
      return Rsp.B_continue;
      map2 (fun addr len -> Rsp.B_read { addr; len }) int_gen int_gen;
      map2 (fun addr data -> Rsp.B_write { addr; data }) int_gen data_gen;
      map
        (fun ((count_addr, data_addr), (stride, max_count), reset) ->
          Rsp.B_read_counted { count_addr; data_addr; stride; max_count; reset })
        (triple (pair int_gen int_gen) (pair int_gen int_gen) bool);
      map (fun cmd -> Rsp.B_monitor cmd) data_gen;
    ]

let command_gen =
  let open QCheck.Gen in
  oneof
    [
      map (fun f -> Rsp.Q_supported f) (oneof [ return ""; data_gen ]);
      map2 (fun addr len -> Rsp.Read_mem { addr; len }) int_gen int_gen;
      map2 (fun addr data -> Rsp.Write_mem { addr; data }) int_gen data_gen;
      map (fun addr -> Rsp.Insert_breakpoint addr) int_gen;
      map (fun addr -> Rsp.Remove_breakpoint addr) int_gen;
      oneofl Rsp.[ Continue; Step; Read_registers; Halt_reason; Flash_done; Kill ];
      map2 (fun addr len -> Rsp.Flash_erase { addr; len }) int_gen int_gen;
      map2 (fun addr data -> Rsp.Flash_write { addr; data }) int_gen data_gen;
      map (fun cmd -> Rsp.Monitor cmd) data_gen;
      map (fun ops -> Rsp.Batch ops) (array_size (1 -- 5) batch_op_gen);
      oneofl Rsp.[ Snapshot_save; Snapshot_restore ];
    ]

let parses_alike payload =
  match (Rsp.parse_command payload, Ref.parse_command payload) with
  | Ok cmd, Ok cmd' -> cmd = cmd'
  | Error _, Error _ -> true
  | Ok _, Error _ | Error _, Ok _ -> false

(* Two halves. A random command renders and frames to the bytes the
   reference renders. A payload (random, that rendering, or a byte-level
   mutation of it) parses to the command the reference parses, or both
   parsers reject it. *)
let prop_codec_matches_reference =
  let gen =
    let open QCheck.Gen in
    command_gen >>= fun cmd ->
    let rendered = Ref.render_command cmd in
    frequency [ (1, string_size (0 -- 32)); (1, return rendered); (4, mutate_gen rendered) ]
    >|= fun payload -> (cmd, payload)
  in
  QCheck.Test.make ~name:"rsp codec equals the reference model" ~count:5_000
    (QCheck.make ~print:(fun (cmd, payload) -> Printf.sprintf "%S / %S" (Ref.render_command cmd) payload) gen)
    (fun (cmd, payload) ->
      frame_command cmd = Ref.make_frame (Ref.render_command cmd) && parses_alike payload)

(* A retired binary [X] write stays in the sweep: it must decode to a
   typed error, never raise. *)
let rendered_commands =
  ("X20000020,6:" ^ Ref.escape_binary "}$#*\x00\xff")
  :: render (Rsp.Batch batch_ops)
  :: List.map render commands
  @ List.map
      (fun data -> render (Rsp.Flash_write { addr = 0; data }))
      [ "plain"; "$#}*"; "\x00\xff}}" ]

let pc_reg = 15

let rendered_replies =
  List.map
    (fun reply ->
      let out = Rsp.Out.create () in
      Rsp.add_reply out ~pc_reg reply;
      Rsp.Out.contents out)
    replies

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
  Alcotest.(check bool) "batch replies" true (Result.is_error (Rsp.Replies.read forged ~pos:0));
  Alcotest.(check bool) "batch ops" true
    (Result.is_error (Rsp.parse_command "vBatch:w20000040,7fffffffffff:}]"))

(* RSP numbers are hex digits and nothing else, up to max_int: OCaml's
   '_' separator and "0x" prefix are not hex, and a field past max_int is
   an error instead of a wrapped address. *)
let test_rsp_numbers_strict () =
  let rejected what r = Alcotest.(check bool) what true (Result.is_error r) in
  rejected "'_' in an address" (Rsp.parse_command "m1_0,4");
  rejected "'_' in a reply code" (Rsp.parse_reply ~pc_reg "E1_");
  rejected "batch address past max_int" (Rsp.parse_command "vBatch:r10000000000000000,4");
  rejected "batch length past max_int" (Rsp.parse_command "vBatch:r0,4000000000000000");
  List.iter
    (fun s -> rejected (Printf.sprintf "hex field %S" s) (Rsp.parse_hex_int s))
    [ ""; "1_0"; "0x10"; "+1"; "-1"; " 1"; "4000000000000000"; "10000000000000000" ];
  Alcotest.(check (result int string)) "max_int" (Ok max_int)
    (Rsp.parse_hex_int "3fffffffffffffff");
  Alcotest.(check (result int string)) "mixed case" (Ok 0xdeadbeef) (Rsp.parse_hex_int "DeadBEEF");
  Alcotest.(check bool) "batch read at max_int" true
    (Rsp.parse_command "vBatch:r3fffffffffffffff,4"
    = Ok (Rsp.Batch [| Rsp.B_read { addr = max_int; len = 4 } |]))

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
  let batch op = `Batch op in
  let command c = `Command c in
  let commands =
    List.concat_map
      (fun (addr, len) ->
        [ command (Rsp.Read_mem { addr; len }); batch (Rsp.B_read { addr; len });
          command (Rsp.Flash_erase { addr; len }) ])
      ranges
    @ List.concat_map
        (fun (addr, data) ->
          [ command (Rsp.Write_mem { addr; data }); batch (Rsp.B_write { addr; data });
            command (Rsp.Flash_write { addr; data }) ])
        writes
    (* Debug writes reach RAM only; flash takes vFlashWrite. *)
    @ [ command (Rsp.Write_mem { addr = flash_base; data = "\x00" });
        batch (Rsp.B_write { addr = flash_base; data = "\x00" }) ]
    @ List.map
        (fun (count_addr, data_addr, stride) ->
          batch
            (Rsp.B_read_counted { count_addr; data_addr; stride; max_count = 8; reset = false }))
        counted
  in
  List.iter
    (fun cmd ->
      let payload, expected =
        match cmd with
        | `Batch op -> (Rsp.Batch [| op |], "bE0e")
        | `Command c -> (c, "E0e")
      in
      let payload = render payload in
      match Openocd.feed probe (Ref.make_frame payload) with
      | reply when reply = "+" ^ Ref.make_frame expected -> ()
      | reply -> Alcotest.failf "%S: reply %S, expected %S" payload reply expected
      | exception e -> Alcotest.failf "%S raised %s" payload (Printexc.to_string e))
    commands;
  Alcotest.(check bool) "RAM and flash unchanged" true (contents () = before)

(* The probe's [gpio] monitor command takes the pin in plain decimal
   digits. Each spelling below is one that [int_of_string] would read as
   a pin number; each must be refused with E02, over qRcmd and as a
   vBatch monitor op, and move no pin. *)
let test_gpio_pin_is_decimal () =
  let board = Board.create Profiles.stm32f4_disco in
  let p = Board.profile board in
  let engine =
    Eof_exec.Engine.create ~board ~fault_vector:p.Board.flash_base ~entry:(fun () -> ())
  in
  let probe = Openocd.create ~board ~engine () in
  let gpio = Board.gpio board in
  (* Every pin latches an interrupt on any level change. *)
  for pin = 0 to 15 do
    match Gpio.configure_irq gpio ~pin Gpio.Both with
    | Ok () -> ()
    | Error e -> Alcotest.fail e
  done;
  let expect what cmd reply =
    Alcotest.(check string) what ("+" ^ Ref.make_frame reply) (Openocd.feed probe (frame_command cmd))
  in
  List.iter
    (fun cmd ->
      expect (cmd ^ " over qRcmd") (Rsp.Monitor cmd) "E02";
      expect (cmd ^ " in a vBatch") (Rsp.Batch [| Rsp.B_monitor cmd |]) "bE02";
      Alcotest.(check (list int)) (cmd ^ " moves no pin") [] (Gpio.drain_pending gpio))
    [ "gpio 0x2 1"; "gpio 0b10 1"; "gpio +2 1"; "gpio 1_0 1"; "gpio 0o2 1"; "gpio -0 1" ];
  expect "gpio 2 1 over qRcmd" (Rsp.Monitor "gpio 2 1") "OK";
  Alcotest.(check (list int)) "pin 2 latched" [ 2 ] (Gpio.drain_pending gpio);
  expect "gpio 2 0 in a vBatch" (Rsp.Batch [| Rsp.B_monitor "gpio 2 0" |]) "bK";
  Alcotest.(check (list int)) "pin 2 latched again" [ 2 ] (Gpio.drain_pending gpio)

(* --- the frame decoder under any chunking ------------------------------ *)

(* The byte-at-a-time state machine that [Rsp.Decoder] replaced, kept as
   the reference model: it consumes one byte per step, so how a stream
   is cut into chunks cannot change what it emits. *)
module Model = struct
  type state = Idle | In_payload | In_check of int option

  type t = { mutable state : state; payload : Buffer.t }

  let create () = { state = Idle; payload = Buffer.create 64 }

  let feed t bytes =
    let events = ref [] in
    let emit e = events := e :: !events in
    String.iter
      (fun c ->
        match t.state with
        | Idle ->
          (match c with
           | '$' ->
             Buffer.clear t.payload;
             t.state <- In_payload
           | '+' -> emit Rsp.Decoder.Ack
           | '-' -> emit Rsp.Decoder.Nak
           | '\003' -> emit Rsp.Decoder.Break
           | _ -> ())
        | In_payload ->
          if c = '#' then t.state <- In_check None else Buffer.add_char t.payload c
        | In_check first ->
          (match Eof_util.Hex.to_nibble c with
           | None ->
             emit (Rsp.Decoder.Bad_checksum (Buffer.contents t.payload));
             t.state <- Idle
           | Some nib ->
             (match first with
              | None -> t.state <- In_check (Some nib)
              | Some hi ->
                let payload = Buffer.contents t.payload in
                emit
                  (if Ref.checksum payload = (hi lsl 4) lor nib then Rsp.Decoder.Packet payload
                   else Rsp.Decoder.Bad_checksum payload);
                t.state <- Idle)))
      bytes;
    List.rev !events
end

(* The events of [chunks] fed in order to one decoder, and to one model. *)
let decoded chunks =
  let d = Rsp.Decoder.create () in
  List.concat_map (Rsp.Decoder.feed d) chunks

let modelled chunks =
  let m = Model.create () in
  List.concat_map (Model.feed m) chunks

(* Pieces of a link byte stream: good frames, frames with a wrong
   checksum or a non-hex check byte in either place, a frame cut off
   before its check bytes, line noise and the single-byte packets. *)
let stream_piece =
  let open QCheck.Gen in
  let payload = map Ref.escape_binary (string_size (0 -- 24)) in
  oneof
    [
      map Ref.make_frame payload;
      map Ref.make_frame payload;
      map2
        (fun p k ->
          let f = Ref.make_frame p in
          let sum = int_of_string ("0x" ^ String.sub f (String.length f - 2) 2) in
          Printf.sprintf "$%s#%02x" p ((sum + 1 + k) land 0xFF))
        payload (int_bound 254);
      map2 (fun p c -> Printf.sprintf "$%s#%cz" p c) payload (oneofl [ '0'; 'a'; 'F'; 'g' ]);
      map (fun p -> Printf.sprintf "$%s#" p) payload;
      map (fun p -> "$" ^ p) payload;
      string_size ~gen:(oneofl [ 'x'; ' '; '0'; '#'; '}'; '\n' ]) (1 -- 6);
      oneofl [ "+"; "-"; "\003"; "$"; "#"; "##" ];
    ]

(* A stream and the cut points that split it into chunks. *)
let chunked_stream =
  let open QCheck.Gen in
  list_size (1 -- 8) stream_piece >>= fun pieces ->
  let s = String.concat "" pieces in
  list_size (0 -- 6) (int_bound (String.length s)) >|= fun cuts -> (s, cuts)

let chunks_of s cuts =
  let cuts = List.sort_uniq compare (0 :: String.length s :: cuts) in
  let rec go = function
    | a :: (b :: _ as rest) -> String.sub s a (b - a) :: go rest
    | _ -> []
  in
  go cuts

let prop_decoder_any_chunking =
  QCheck.Test.make ~name:"decoder events under any chunking equal the byte model" ~count:2_000
    (QCheck.make ~print:(fun (s, cuts) ->
         Printf.sprintf "%S cut at %s" s (String.concat "," (List.map string_of_int cuts)))
       chunked_stream)
    (fun (s, cuts) ->
      let chunks = chunks_of s cuts in
      decoded chunks = modelled chunks && decoded [ s ] = modelled [ s ])

(* The cuts a one-pass decoder is most likely to get wrong: a chunk that
   ends right after a '$', and a '#' as a chunk's last or second-to-last
   byte, at every such place in a stream of every piece kind. *)
let test_decoder_forced_cuts () =
  let frame = frame_command (Rsp.Read_mem { addr = 0x2000_0000; len = 4 }) in
  let s =
    String.concat ""
      [ "+"; frame; "$OK#00"; "$OK#zz"; "$OK#z+"; "$OK#9z"; "-"; "noise#"; Ref.make_frame (Ref.escape_binary "#$}*");
        "-"; "\003"; "$OK#9a"; "$trailing" ]
  in
  let places = ref [] in
  String.iteri
    (fun i c ->
      if c = '$' then places := (i + 1) :: !places;
      if c = '#' then places := (i + 1) :: (i + 2) :: !places)
    s;
  List.iter
    (fun cut ->
      if cut <= String.length s then
        let chunks = chunks_of s [ cut ] in
        if decoded chunks <> modelled chunks then Alcotest.failf "cut at %d of %S" cut s)
    !places;
  Alcotest.(check bool) "whole stream" true (decoded [ s ] = modelled [ s ]);
  (* Every pair of forced cuts, too. *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let chunks = chunks_of s [ a; b ] in
          if decoded chunks <> modelled chunks then Alcotest.failf "cuts at %d,%d of %S" a b s)
        !places)
    !places

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
    Alcotest.test_case "gpio pin is plain decimal" `Quick test_gpio_pin_is_decimal;
    Alcotest.test_case "decoder forced cuts equal the byte model" `Quick test_decoder_forced_cuts;
    QCheck_alcotest.to_alcotest prop_decoder_any_chunking;
    QCheck_alcotest.to_alcotest prop_codec_matches_reference;
    Alcotest.test_case "Journal.replay at every offset" `Quick test_journal_replay_total;
    Alcotest.test_case "Corpus_io save, load and mutations" `Quick test_corpus_io_total;
    prop "Rsp.parse_command" rendered_commands (total Rsp.parse_command);
    prop "Rsp.parse_reply" rendered_replies (total (Rsp.parse_reply ~pc_reg));
    prop "Rsp.Replies" [ batch_reply ] read_all_replies;
    prop "Rsp.hex_data" [ "00ff7f"; "DeadBEEF"; "" ] (total Rsp.hex_data);
    prop "Rsp.Decoder.feed"
      ("+" :: "-" :: "\x03" :: List.map Ref.make_frame rendered_commands)
      feed_decoder;
    prop "Wire.decode (little-endian)" (encoded_programs Arch.Little)
      (total (Wire.decode ~endianness:Arch.Little));
    prop "Wire.decode (big-endian)" (encoded_programs Arch.Big)
      (total (Wire.decode ~endianness:Arch.Big));
    prop "Trace.parse_line" trace_lines (total Trace.parse_line);
  ]
