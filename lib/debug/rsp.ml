open Eof_util

(* The codecs below sit on every debug-link exchange, so they write into
   one buffer per packet and parse in place: no Printf, no per-field
   substrings, no option per hex digit. The wire bytes are exactly what
   the [Printf] formats "%x" / "%02x" / "%08x" would produce. *)

let checksum s =
  let acc = ref 0 in
  for i = 0 to String.length s - 1 do
    acc := (!acc + Char.code (String.unsafe_get s i)) land 0xFF
  done;
  !acc

let hex_digit n = String.unsafe_get "0123456789abcdef" (n land 0xF)

(* [Printf "%0*x" width n]; negative values (a raw target counter can be
   one) keep Printf's two's-complement rendering. *)
let rec add_hex_digits buf n =
  if n >= 16 then add_hex_digits buf (n lsr 4);
  Buffer.add_char buf (hex_digit n)

let rec hex_width n = if n >= 16 then 1 + hex_width (n lsr 4) else 1

let add_hex ?(width = 0) buf n =
  if n < 0 then Buffer.add_string buf (Printf.sprintf "%0*x" width n)
  else begin
    for _ = hex_width n + 1 to width do
      Buffer.add_char buf '0'
    done;
    add_hex_digits buf n
  end

let make_frame payload =
  let n = String.length payload in
  let b = Bytes.create (n + 4) in
  let c = checksum payload in
  Bytes.unsafe_set b 0 '$';
  Bytes.unsafe_blit_string payload 0 b 1 n;
  Bytes.unsafe_set b (n + 1) '#';
  Bytes.unsafe_set b (n + 2) (hex_digit (c lsr 4));
  Bytes.unsafe_set b (n + 3) (hex_digit c);
  Bytes.unsafe_to_string b

let must_escape c = c = '$' || c = '#' || c = '}' || c = '*'

let add_escaped buf s =
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if must_escape c then begin
      Buffer.add_char buf '}';
      Buffer.add_char buf (Char.unsafe_chr (Char.code c lxor 0x20))
    end
    else Buffer.add_char buf c
  done

let escape_binary s =
  let buf = Buffer.create (String.length s) in
  add_escaped buf s;
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

module Decoder = struct
  type state = Idle | In_payload | In_check of int option (* first nibble *)

  type t = { mutable state : state; payload : Buffer.t }

  type event = Packet of string | Ack | Nak | Break | Bad_checksum of string

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
           | '+' -> emit Ack
           | '-' -> emit Nak
           | '\003' -> emit Break
           | _ -> (* line noise between frames: ignored like a real stub *) ())
        | In_payload ->
          if c = '#' then t.state <- In_check None else Buffer.add_char t.payload c
        | In_check first ->
          (match Hex.to_nibble c with
           | None ->
             emit (Bad_checksum (Buffer.contents t.payload));
             t.state <- Idle
           | Some nib ->
             (match first with
              | None -> t.state <- In_check (Some nib)
              | Some hi ->
                let declared = (hi lsl 4) lor nib in
                let payload = Buffer.contents t.payload in
                if checksum payload = declared then emit (Packet payload)
                else emit (Bad_checksum payload);
                t.state <- Idle)))
      bytes;
    List.rev !events
end

type batch_op =
  | B_continue
  | B_read of { addr : int; len : int }
  | B_write of { addr : int; data : string }
  | B_read_counted of {
      count_addr : int;
      data_addr : int;
      stride : int;
      max_count : int;
      reset : bool;
    }
  | B_monitor of string

type batch_reply =
  | Br_ok
  | Br_data of string
  | Br_counted of { count : int; data : string }
  | Br_stop of string
  | Br_error of int

type command =
  | Q_supported of string
  | Read_mem of { addr : int; len : int }
  | Write_mem of { addr : int; data : string }
  | Insert_breakpoint of int
  | Remove_breakpoint of int
  | Continue
  | Step
  | Read_registers
  | Halt_reason
  | Flash_erase of { addr : int; len : int }
  | Flash_write of { addr : int; data : string }
  | Flash_done
  | Monitor of string
  | Kill
  | Batch of batch_op list
  | Snapshot_save
  | Snapshot_restore

let parse_hex_int s =
  if s = "" then Error "empty hex number"
  else
    match int_of_string_opt ("0x" ^ s) with
    | Some v when v >= 0 -> Ok v
    | _ -> Error (Printf.sprintf "bad hex number %S" s)

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
  (* payload after Z/z: "0,<addr>,<kind>" *)
  match String.split_on_char ',' s with
  | [ "0"; addr; _kind ] -> parse_hex_int addr
  | _ -> Error (Printf.sprintf "unsupported breakpoint spec %S" s)

(* --- batch (vBatch) wire format ---------------------------------------

   Request payload after "vBatch:": sub-operations separated by ';'.
     c                                   continue (run one quantum)
     r<addr>,<len>                       read memory
     w<addr>,<len>:<escaped bytes>       write memory (len = raw length)
     k<cnt>,<data>,<stride>,<max>,<r|n>  counted read: read u32 at <cnt>,
                                         clamp to [0,<max>], return that
                                         many <stride>-byte entries from
                                         <data>; 'r' resets the counter
     m<len>:<escaped cmd>                monitor (qRcmd) command

   Reply payload after the leading 'b': one sub-reply per sub-op, in
   order, separated by ';'.
     K                        OK
     E<nn>                    error
     d<len>:<escaped bytes>   data
     k<count>,<len>:<escaped> counted data (count = raw counter value)
     s<len>:<escaped payload> a stop reply (continue result)

   Binary segments are length-prefixed with their *raw* length and use
   standard }-escaping, so one framed exchange can carry arbitrary
   binary both ways. *)

(* A parse position over one packet payload. Section parsers raise
   [Bad] internally and return it as [Error] at their boundary, so the
   hot path allocates no result per field. [base] is where the parsed
   section starts: error offsets are reported relative to it. *)
type cursor = { s : string; mutable i : int; base : int }

exception Bad of string

let nibble = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | _ -> -1

let hex_at c =
  let n = String.length c.s and start = c.i in
  let acc = ref 0 in
  while c.i < n && nibble c.s.[c.i] >= 0 do
    acc := (!acc lsl 4) lor nibble c.s.[c.i];
    c.i <- c.i + 1
  done;
  if c.i = start then raise (Bad "expected hex number");
  !acc

let expect c ch =
  if c.i < String.length c.s && c.s.[c.i] = ch then c.i <- c.i + 1
  else raise (Bad (Printf.sprintf "expected '%c' at offset %d" ch (c.i - c.base)))

let rec no_escape_in s i stop = i >= stop || (s.[i] <> '}' && no_escape_in s (i + 1) stop)

(* [rawlen] logical (unescaped) bytes of }-escaped data at the cursor.
   Length-prefixed segments are what make the batch wire format
   self-delimiting: raw separator bytes inside binary data are harmless
   because the parser consumes by count, not by delimiter. *)
let escaped_at c rawlen =
  let s = c.s and n = String.length c.s in
  if rawlen >= 0 && c.i + rawlen <= n && no_escape_in s c.i (c.i + rawlen) then begin
    (* No escape in the segment: it is a plain substring. *)
    let data = String.sub s c.i rawlen in
    c.i <- c.i + rawlen;
    data
  end
  else begin
    (* Each logical byte takes at least one input byte, so the input
       left bounds the capacity: a forged length must not allocate. *)
    let buf = Buffer.create (min (max 0 rawlen) (n - c.i)) in
    let k = ref rawlen in
    while !k <> 0 do
      if c.i >= n then raise (Bad "truncated binary segment");
      if s.[c.i] = '}' then begin
        if c.i + 1 >= n then raise (Bad "dangling escape in binary segment");
        Buffer.add_char buf (Char.chr (Char.code s.[c.i + 1] lxor 0x20));
        c.i <- c.i + 2
      end
      else begin
        Buffer.add_char buf s.[c.i];
        c.i <- c.i + 1
      end;
      decr k
    done;
    Buffer.contents buf
  end

(* [;]-separated items from [base] to the end of [s]. *)
let parse_items ~empty ~empty_item item s base =
  let n = String.length s in
  if base >= n then Error empty
  else begin
    let c = { s; i = base; base } in
    let rec items acc =
      if c.i >= n then raise (Bad empty_item);
      let x = item c in
      if c.i = n then List.rev (x :: acc)
      else begin
        expect c ';';
        items (x :: acc)
      end
    in
    match items [] with xs -> Ok xs | exception Bad e -> Error e
  end

let add_batch_op buf = function
  | B_continue -> Buffer.add_char buf 'c'
  | B_read { addr; len } ->
    Buffer.add_char buf 'r';
    add_hex buf addr;
    Buffer.add_char buf ',';
    add_hex buf len
  | B_write { addr; data } ->
    Buffer.add_char buf 'w';
    add_hex buf addr;
    Buffer.add_char buf ',';
    add_hex buf (String.length data);
    Buffer.add_char buf ':';
    add_escaped buf data
  | B_read_counted { count_addr; data_addr; stride; max_count; reset } ->
    Buffer.add_char buf 'k';
    add_hex buf count_addr;
    Buffer.add_char buf ',';
    add_hex buf data_addr;
    Buffer.add_char buf ',';
    add_hex buf stride;
    Buffer.add_char buf ',';
    add_hex buf max_count;
    Buffer.add_char buf ',';
    Buffer.add_char buf (if reset then 'r' else 'n')
  | B_monitor cmd ->
    Buffer.add_char buf 'm';
    add_hex buf (String.length cmd);
    Buffer.add_char buf ':';
    add_escaped buf cmd

let rec add_separated add buf = function
  | [] -> ()
  | [ x ] -> add buf x
  | x :: rest ->
    add buf x;
    Buffer.add_char buf ';';
    add_separated add buf rest

let render_ops ~prefix ops =
  let buf = Buffer.create 128 in
  Buffer.add_string buf prefix;
  add_separated add_batch_op buf ops;
  Buffer.contents buf

let render_batch_ops ops = render_ops ~prefix:"" ops

let batch_op_at c =
  let ch = c.s.[c.i] in
  c.i <- c.i + 1;
  match ch with
  | 'c' -> B_continue
  | 'r' ->
    let addr = hex_at c in
    expect c ',';
    let len = hex_at c in
    B_read { addr; len }
  | 'w' ->
    let addr = hex_at c in
    expect c ',';
    let len = hex_at c in
    expect c ':';
    let data = escaped_at c len in
    B_write { addr; data }
  | 'k' ->
    let count_addr = hex_at c in
    expect c ',';
    let data_addr = hex_at c in
    expect c ',';
    let stride = hex_at c in
    expect c ',';
    let max_count = hex_at c in
    expect c ',';
    let reset =
      match if c.i < String.length c.s then c.s.[c.i] else ' ' with
      | 'r' -> true
      | 'n' -> false
      | _ -> raise (Bad "counted read: expected 'r' or 'n'")
    in
    c.i <- c.i + 1;
    B_read_counted { count_addr; data_addr; stride; max_count; reset }
  | 'm' ->
    let len = hex_at c in
    expect c ':';
    let cmd = escaped_at c len in
    B_monitor cmd
  | ch -> raise (Bad (Printf.sprintf "unknown batch op '%c'" ch))

let parse_batch_ops_at s base =
  parse_items ~empty:"empty batch" ~empty_item:"empty batch item" batch_op_at s base

let parse_batch_ops s = parse_batch_ops_at s 0

let add_batch_reply buf = function
  | Br_ok -> Buffer.add_char buf 'K'
  | Br_error n ->
    Buffer.add_char buf 'E';
    add_hex ~width:2 buf (n land 0xFF)
  | Br_data data ->
    Buffer.add_char buf 'd';
    add_hex buf (String.length data);
    Buffer.add_char buf ':';
    add_escaped buf data
  | Br_counted { count; data } ->
    Buffer.add_char buf 'k';
    add_hex buf count;
    Buffer.add_char buf ',';
    add_hex buf (String.length data);
    Buffer.add_char buf ':';
    add_escaped buf data
  | Br_stop payload ->
    Buffer.add_char buf 's';
    add_hex buf (String.length payload);
    Buffer.add_char buf ':';
    add_escaped buf payload

let render_batch_replies ?(prefix = "") replies =
  let buf = Buffer.create 128 in
  Buffer.add_string buf prefix;
  add_separated add_batch_reply buf replies;
  Buffer.contents buf

let batch_reply_at c =
  let ch = c.s.[c.i] in
  c.i <- c.i + 1;
  match ch with
  | 'K' -> Br_ok
  | 'E' ->
    if c.i + 2 > String.length c.s then raise (Bad "truncated error reply");
    (match parse_hex_int (String.sub c.s c.i 2) with
     | Ok code ->
       c.i <- c.i + 2;
       Br_error code
     | Error e -> raise (Bad e))
  | 'd' ->
    let len = hex_at c in
    expect c ':';
    Br_data (escaped_at c len)
  | 'k' ->
    let count = hex_at c in
    expect c ',';
    let len = hex_at c in
    expect c ':';
    let data = escaped_at c len in
    Br_counted { count; data }
  | 's' ->
    let len = hex_at c in
    expect c ':';
    Br_stop (escaped_at c len)
  | ch -> raise (Bad (Printf.sprintf "unknown batch reply '%c'" ch))

let parse_batch_replies ?(pos = 0) s =
  parse_items ~empty:"empty batch reply" ~empty_item:"empty batch reply item" batch_reply_at s pos

(* [String.sub payload 0 (String.length p) = p], without the copy. *)
let has_prefix payload p =
  let k = String.length p in
  String.length payload >= k
  &&
  let rec go i = i >= k || (payload.[i] = p.[i] && go (i + 1)) in
  go 0

let parse_command payload =
  if payload = "" then Error "empty packet"
  else
    let rest () = String.sub payload 1 (String.length payload - 1) in
    match payload.[0] with
    | 'q' ->
      if payload = "qSupported" then Ok (Q_supported "")
      else if has_prefix payload "qSupported:" then
        Ok (Q_supported (String.sub payload 11 (String.length payload - 11)))
      else if has_prefix payload "qRcmd," then
        let hex = String.sub payload 6 (String.length payload - 6) in
        (match Hex.decode hex with
         | Ok cmd -> Ok (Monitor cmd)
         | Error e -> Error ("qRcmd: " ^ e))
      else Error (Printf.sprintf "unsupported query %S" payload)
    | 'm' ->
      let* addr, len = parse_addr_len (rest ()) in
      Ok (Read_mem { addr; len })
    | 'M' ->
      (match split2 ':' (rest ()) with
       | None -> Error "M: missing data"
       | Some (range, hexdata) ->
         let* addr, len = parse_addr_len range in
         (match Hex.decode hexdata with
          | Error e -> Error ("M: " ^ e)
          | Ok data ->
            if String.length data <> len then Error "M: length mismatch"
            else Ok (Write_mem { addr; data })))
    | 'Z' ->
      let* addr = parse_breakpoint (rest ()) in
      Ok (Insert_breakpoint addr)
    | 'z' ->
      let* addr = parse_breakpoint (rest ()) in
      Ok (Remove_breakpoint addr)
    | 'Q' ->
      (* QSnapshot extension: the stub holds one board-side snapshot.
         "save" captures it; "restore" copies dirty pages back. Replies
         are "S<hex>" — pages covered for save, pages copied for
         restore — so the host can account restore cost. *)
      if payload = "QSnapshot:save" then Ok Snapshot_save
      else if payload = "QSnapshot:restore" then Ok Snapshot_restore
      else Error (Printf.sprintf "unsupported set packet %S" payload)
    | 'c' when payload = "c" -> Ok Continue
    | 's' when payload = "s" -> Ok Step
    | 'g' when payload = "g" -> Ok Read_registers
    | '?' when payload = "?" -> Ok Halt_reason
    | 'k' when payload = "k" -> Ok Kill
    | 'v' ->
      if has_prefix payload "vFlashErase:" then
        let* addr, len = parse_addr_len (String.sub payload 12 (String.length payload - 12)) in
        Ok (Flash_erase { addr; len })
      else if has_prefix payload "vFlashWrite:" then
        let body = String.sub payload 12 (String.length payload - 12) in
        (match split2 ':' body with
         | None -> Error "vFlashWrite: missing data"
         | Some (a, escaped) ->
           let* addr = parse_hex_int a in
           (match unescape_binary escaped with
            | Error e -> Error ("vFlashWrite: " ^ e)
            | Ok data -> Ok (Flash_write { addr; data })))
      else if payload = "vFlashDone" then Ok Flash_done
      else if has_prefix payload "vBatch:" then
        let* ops = parse_batch_ops_at payload 7 in
        Ok (Batch ops)
      else Error (Printf.sprintf "unsupported v-packet %S" payload)
    | _ -> Error (Printf.sprintf "unsupported packet %S" payload)

let render_command = function
  | Q_supported "" -> "qSupported"
  | Q_supported features -> "qSupported:" ^ features
  | Read_mem { addr; len } -> Printf.sprintf "m%x,%x" addr len
  | Write_mem { addr; data } ->
    Printf.sprintf "M%x,%x:%s" addr (String.length data) (Hex.encode data)
  | Insert_breakpoint addr -> Printf.sprintf "Z0,%x,2" addr
  | Remove_breakpoint addr -> Printf.sprintf "z0,%x,2" addr
  | Continue -> "c"
  | Step -> "s"
  | Read_registers -> "g"
  | Halt_reason -> "?"
  | Kill -> "k"
  | Flash_erase { addr; len } -> Printf.sprintf "vFlashErase:%x,%x" addr len
  | Flash_write { addr; data } ->
    Printf.sprintf "vFlashWrite:%x:%s" addr (escape_binary data)
  | Flash_done -> "vFlashDone"
  | Monitor cmd -> "qRcmd," ^ Hex.encode cmd
  | Batch ops -> render_ops ~prefix:"vBatch:" ops
  | Snapshot_save -> "QSnapshot:save"
  | Snapshot_restore -> "QSnapshot:restore"

type stop_info = { signal : int; pc : int; detail : string }

type reply =
  | Ok_reply
  | Error_reply of int
  | Hex_data of string
  | Stop of stop_info
  | Exited of int
  | Supported of string
  | Raw of string

let render_reply ~pc_reg = function
  | Ok_reply -> "OK"
  | Error_reply n -> Printf.sprintf "E%02x" (n land 0xFF)
  | Hex_data raw -> Hex.encode raw
  | Stop { signal; pc; detail } ->
    let buf = Buffer.create (16 + String.length detail) in
    Buffer.add_char buf 'T';
    add_hex ~width:2 buf (signal land 0xFF);
    add_hex ~width:2 buf pc_reg;
    Buffer.add_char buf ':';
    add_hex ~width:8 buf pc;
    Buffer.add_char buf ';';
    Buffer.add_string buf detail;
    Buffer.add_char buf ';';
    Buffer.contents buf
  | Exited code -> Printf.sprintf "W%02x" (code land 0xFF)
  | Supported s -> s
  | Raw s -> s

let parse_stop ~pc_reg s =
  (* "Txx<reg>:<pc8>;<detail>;" *)
  let* signal = parse_hex_int (String.sub s 1 2) in
  let rest = String.sub s 3 (String.length s - 3) in
  match split2 ':' rest with
  | None -> Error (Printf.sprintf "stop reply missing register: %S" s)
  | Some (reg, tail) ->
    let* reg = parse_hex_int reg in
    if reg <> pc_reg then Error (Printf.sprintf "stop reply for unexpected register %d" reg)
    else if String.length tail < 9 then Error "stop reply too short"
    else
      let* pc = parse_hex_int (String.sub tail 0 8) in
      let detail = String.sub tail 9 (String.length tail - 9) in
      let detail =
        if String.length detail > 0 && detail.[String.length detail - 1] = ';' then
          String.sub detail 0 (String.length detail - 1)
        else detail
      in
      Ok (Stop { signal; pc; detail })

let parse_reply ~pc_reg payload =
  if payload = "OK" then Ok Ok_reply
  else if String.length payload = 3 && payload.[0] = 'E' then
    let* n = parse_hex_int (String.sub payload 1 2) in
    Ok (Error_reply n)
  else if String.length payload >= 3 && payload.[0] = 'W' then
    let* code = parse_hex_int (String.sub payload 1 2) in
    Ok (Exited code)
  else if String.length payload >= 3 && payload.[0] = 'T' then parse_stop ~pc_reg payload
  else Ok (Raw payload)

(* --- typed boundary ----------------------------------------------------

   The parsers above compose over plain strings; the public entry points
   re-type their errors as [Eof_error.Protocol] so every consumer up the
   stack speaks one error language. (Shadowing below the internal uses
   keeps the string combinators composable in here.) *)

let typed r = Result.map_error Eof_error.protocol r

let unescape_binary s = typed (unescape_binary s)

let parse_batch_ops s = typed (parse_batch_ops s)

let parse_batch_replies ?pos s = typed (parse_batch_replies ?pos s)

let parse_command payload = typed (parse_command payload)

let parse_reply ~pc_reg payload = typed (parse_reply ~pc_reg payload)
