open Eof_util

(* The codecs below sit on every debug-link exchange, so each end of the
   link renders its frames into one reused output buffer and parses in
   place: no Printf, no per-field substrings, no option per hex digit.
   The wire bytes are exactly what the [Printf] formats "%x" / "%02x" /
   "%08x" would produce. *)

let checksum_range s pos stop =
  let acc = ref 0 in
  for i = pos to stop - 1 do
    acc := !acc + Char.code (String.unsafe_get s i)
  done;
  !acc land 0xFF

let checksum s = checksum_range s 0 (String.length s)

let hex_digit n = String.unsafe_get "0123456789abcdef" (n land 0xF)

(* Hex digits in [n >= 0]. *)
let rec hex_width n =
  if n < 0x10000 then
    if n < 0x100 then if n < 0x10 then 1 else 2 else if n < 0x1000 then 3 else 4
  else if n < 0x1_0000_0000 then
    if n < 0x100_0000 then if n < 0x10_0000 then 5 else 6
    else if n < 0x1000_0000 then 7
    else 8
  else 8 + hex_width (n lsr 32)

let must_escape c = c = '$' || c = '#' || c = '}' || c = '*'

module Out = struct
  type t = {
    mutable b : Bytes.t;
    mutable len : int;
    mutable frame : int;  (* where the open frame's payload starts *)
  }

  let create () = { b = Bytes.create 256; len = 0; frame = 0 }

  let clear t = t.len <- 0

  let grow t need =
    let b = Bytes.create (Int.max need (2 * Bytes.length t.b)) in
    Bytes.blit t.b 0 b 0 t.len;
    t.b <- b

  let[@inline] reserve t k = if t.len + k > Bytes.length t.b then grow t (t.len + k)

  let[@inline] add_char t c =
    reserve t 1;
    Bytes.unsafe_set t.b t.len c;
    t.len <- t.len + 1

  let add_substring t s pos len =
    reserve t len;
    Bytes.unsafe_blit_string s pos t.b t.len len;
    t.len <- t.len + len

  let add_string t s = add_substring t s 0 (String.length s)

  let open_frame t =
    add_char t '$';
    t.frame <- t.len

  let close_frame t =
    let c = checksum_range (Bytes.unsafe_to_string t.b) t.frame t.len in
    add_char t '#';
    add_char t (hex_digit (c lsr 4));
    add_char t (hex_digit c)

  let contents t = Bytes.sub_string t.b 0 t.len
end

(* [Printf "%0*x" width n], digits written last to first; negative
   values (a raw target counter can be one) keep Printf's two's-complement
   rendering. *)
let add_hex ?(width = 0) out n =
  if n < 0 then Out.add_string out (Printf.sprintf "%0*x" width n)
  else begin
    let w = Int.max width (hex_width n) in
    Out.reserve out w;
    let b = out.Out.b and p = out.Out.len in
    let v = ref n in
    for i = p + w - 1 downto p do
      Bytes.unsafe_set b i (hex_digit !v);
      v := !v lsr 4
    done;
    out.Out.len <- p + w
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

(* Each run of bytes between escapes is one blit. *)
let add_escaped out s =
  let n = String.length s in
  let start = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if must_escape c then begin
      Out.add_substring out s !start (i - !start);
      Out.add_char out '}';
      Out.add_char out (Char.unsafe_chr (Char.code c lxor 0x20));
      start := i + 1
    end
  done;
  Out.add_substring out s !start (n - !start)

let escape_binary s =
  let out = Out.create () in
  add_escaped out s;
  Out.contents out

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

(* The value of each hex digit byte, either case; 0xFF for any other
   byte. *)
let nibbles =
  String.init 256 (fun i ->
      match Char.chr i with
      | '0' .. '9' -> Char.chr (i - Char.code '0')
      | 'a' .. 'f' -> Char.chr (i - Char.code 'a' + 10)
      | 'A' .. 'F' -> Char.chr (i - Char.code 'A' + 10)
      | _ -> '\xff')

let nibble c = Char.code (String.unsafe_get nibbles (Char.code c))

module Decoder = struct
  type state = Idle | In_payload | In_check of int option (* first nibble *)

  type t = { mutable state : state; payload : Buffer.t }

  type event = Packet of string | Ack | Nak | Break | Bad_checksum of string

  let create () = { state = Idle; payload = Buffer.create 64 }

  let checked payload declared =
    if checksum payload = declared then Packet payload else Bad_checksum payload

  (* A frame whose '#' and both check bytes are in the chunk is decoded
     from the chunk: one loop finds the '#' and sums the payload. Only a
     frame cut by the chunk's end goes through [payload] and the byte
     states, and both paths give the same events for any chunking. *)
  let feed t bytes =
    let n = String.length bytes in
    let events = ref [] and i = ref 0 in
    while !i < n do
      match t.state with
      | Idle ->
        let c = String.unsafe_get bytes !i in
        incr i;
        (match c with
         | '$' ->
           let start = !i and j = ref !i and sum = ref 0 in
           while !j < n && String.unsafe_get bytes !j <> '#' do
             sum := !sum + Char.code (String.unsafe_get bytes !j);
             incr j
           done;
           let h = !j in
           if h + 2 < n then begin
             let payload = String.sub bytes start (h - start) in
             let hi = nibble (String.unsafe_get bytes (h + 1)) in
             let lo = nibble (String.unsafe_get bytes (h + 2)) in
             if hi > 15 then begin
               events := Bad_checksum payload :: !events;
               i := h + 2
             end
             else begin
               events :=
                 (if lo <= 15 && !sum land 0xFF = (hi lsl 4) lor lo then Packet payload
                  else Bad_checksum payload)
                 :: !events;
               i := h + 3
             end
           end
           else begin
             Buffer.clear t.payload;
             t.state <- In_payload
           end
         | '+' -> events := Ack :: !events
         | '-' -> events := Nak :: !events
         | '\003' -> events := Break :: !events
         | _ -> (* line noise between frames: ignored like a real stub *) ())
      | In_payload ->
        (match String.index_from_opt bytes !i '#' with
         | None ->
           Buffer.add_substring t.payload bytes !i (n - !i);
           i := n
         | Some h ->
           Buffer.add_substring t.payload bytes !i (h - !i);
           t.state <- In_check None;
           i := h + 1)
      | In_check first ->
        let nib = nibble (String.unsafe_get bytes !i) in
        incr i;
        if nib > 15 then begin
          t.state <- Idle;
          events := Bad_checksum (Buffer.contents t.payload) :: !events
        end
        else
          (match first with
           | None -> t.state <- In_check (Some nib)
           | Some hi ->
             t.state <- Idle;
             events := checked (Buffer.contents t.payload) ((hi lsl 4) lor nib) :: !events)
    done;
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

(* A parse position over one packet payload. Section parsers raise
   [Bad] internally and return it as [Error] at their boundary, so the
   hot path allocates no result per field. [base] is where the parsed
   section starts: error offsets are reported relative to it. *)
type cursor = {
  s : string;
  mutable i : int;
  base : int;
  mutable checked : bool;  (* the check pass is done *)
  mutable escapes : bool;  (* it found an escape in some binary segment *)
}

let cursor s base = { s; i = base; base; checked = false; escapes = false }

exception Bad of string

(* The ops of a [vBatch:] payload, all parsed before any runs. *)
type batch_ops = { mutable ops : batch_op array; mutable count : int }

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
  | Batch of batch_ops
  | Snapshot_save
  | Snapshot_restore

(* The one reader of RSP hex numbers: [acc] extended by the digits
   s.[i .. stop - 1], or -1 when one of them is not a hex digit (no
   sign, "0x" or '_') or the value exceeds max_int. Callers reject an
   empty field first. *)
let rec hex_digits s i stop acc =
  if i = stop then acc
  else
    let d = nibble (String.unsafe_get s i) in
    if d > 15 || acc > max_int lsr 4 then -1 else hex_digits s (i + 1) stop ((acc lsl 4) lor d)

(* The hex number s.[i .. stop - 1], or -1 when it is empty or bad. *)
let hex_value s i stop = if i = stop then -1 else hex_digits s i stop 0

let hex_error s i stop =
  if i = stop then "empty hex number"
  else Printf.sprintf "bad hex number %S" (String.sub s i (stop - i))

let parse_hex_int s =
  let n = String.length s in
  match hex_value s 0 n with -1 -> Error (hex_error s 0 n) | v -> Ok v

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
   binary both ways.

   Both ends read a whole payload before acting on any of it: the probe
   parses every op before it runs one, so it runs no op of a malformed
   batch, and the host checks every sub-reply and their count before it
   reads them again in place. *)

(* The hex number at the cursor, read in one pass. *)
let hex_at c =
  let s = c.s and start = c.i in
  let n = String.length s in
  let i = ref start and acc = ref 0 in
  while !i < n && nibble (String.unsafe_get s !i) <= 15 do
    if !acc > max_int lsr 4 then
      raise (Bad (Printf.sprintf "hex number past max_int at offset %d" (start - c.base)));
    acc := (!acc lsl 4) lor nibble (String.unsafe_get s !i);
    incr i
  done;
  if !i = start then raise (Bad "expected hex number");
  c.i <- !i;
  !acc

let expect c ch =
  if c.i < String.length c.s && c.s.[c.i] = ch then c.i <- c.i + 1
  else raise (Bad (Printf.sprintf "expected '%c' at offset %d" ch (c.i - c.base)))

(* Where the [rawlen] logical (unescaped) bytes of }-escaped data that
   start at the cursor end. Length-prefixed segments are what make the
   batch wire format self-delimiting: raw separator bytes inside binary
   data are harmless because the parser consumes by count, not by
   delimiter. *)
let segment_end c rawlen =
  let s = c.s and n = String.length c.s in
  if c.checked && not c.escapes then
    (* Every segment of this payload is its own bytes. *)
    c.i + rawlen
  else begin
    let i = ref c.i in
    for _ = 1 to rawlen do
      if !i >= n then raise (Bad "truncated binary segment");
      if String.unsafe_get s !i = '}' then begin
        if !i + 1 >= n then raise (Bad "dangling escape in binary segment");
        i := !i + 2
      end
      else incr i
    done;
    if !i - c.i <> rawlen then c.escapes <- true;
    !i
  end

(* The [rawlen] bytes of a checked segment s.[i .. stop - 1]: the
   substring when it holds no escape (each escape takes two input bytes
   for one logical byte). *)
let segment_string s i stop rawlen =
  if stop - i = rawlen then String.sub s i rawlen
  else begin
    let b = Bytes.create rawlen and i = ref i in
    for k = 0 to rawlen - 1 do
      if String.unsafe_get s !i = '}' then begin
        Bytes.unsafe_set b k (Char.unsafe_chr (Char.code (String.unsafe_get s (!i + 1)) lxor 0x20));
        i := !i + 2
      end
      else begin
        Bytes.unsafe_set b k (String.unsafe_get s !i);
        incr i
      end
    done;
    Bytes.unsafe_to_string b
  end

(* The segment at the cursor, consumed. *)
let escaped_at c rawlen =
  let stop = segment_end c rawlen in
  let data = segment_string c.s c.i stop rawlen in
  c.i <- stop;
  data

(* Check the [;]-separated items from the cursor to the end of its
   payload, the [k]th read by [item x k], and count them. *)
let check_items ~empty ~empty_item item x c =
  let n = String.length c.s in
  if c.i >= n then Error empty
  else
    match
      ignore (item x 0);
      let k = ref 1 in
      while c.i < n do
        expect c ';';
        if c.i >= n then raise (Bad empty_item);
        ignore (item x !k);
        incr k
      done;
      !k
    with
    | k ->
      c.checked <- true;
      Ok k
    | exception Bad e -> Error e

let add_segment out data =
  add_hex out (String.length data);
  Out.add_char out ':';
  add_escaped out data

let add_batch_op out = function
  | B_continue -> Out.add_char out 'c'
  | B_read { addr; len } ->
    Out.add_char out 'r';
    add_hex out addr;
    Out.add_char out ',';
    add_hex out len
  | B_write { addr; data } ->
    Out.add_char out 'w';
    add_hex out addr;
    Out.add_char out ',';
    add_segment out data
  | B_read_counted { count_addr; data_addr; stride; max_count; reset } ->
    Out.add_char out 'k';
    add_hex out count_addr;
    Out.add_char out ',';
    add_hex out data_addr;
    Out.add_char out ',';
    add_hex out stride;
    Out.add_char out ',';
    add_hex out max_count;
    Out.add_char out ',';
    Out.add_char out (if reset then 'r' else 'n')
  | B_monitor cmd ->
    Out.add_char out 'm';
    add_segment out cmd

let rec add_batch_ops out = function
  | [] -> ()
  | [ op ] -> add_batch_op out op
  | op :: ops ->
    add_batch_op out op;
    Out.add_char out ';';
    add_batch_ops out ops

let render_batch_ops ops =
  let out = Out.create () in
  add_batch_ops out ops;
  Out.contents out

(* One op at the cursor. *)
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
    B_monitor (escaped_at c len)
  | ch -> raise (Bad (Printf.sprintf "unknown batch op '%c'" ch))

(* The [k]th op at the cursor, stored in [b]. *)
let store_op (c, b) k =
  if k = Array.length b.ops then begin
    let ops = Array.make (2 * k) B_continue in
    Array.blit b.ops 0 ops 0 k;
    b.ops <- ops
  end;
  b.ops.(k) <- batch_op_at c

let parse_ops s pos =
  let c = cursor s pos and b = { ops = Array.make 8 B_continue; count = 0 } in
  match check_items ~empty:"empty batch" ~empty_item:"empty batch item" store_op (c, b) c with
  | Ok k ->
    b.count <- k;
    Ok b
  | Error e -> Error e

let iter_batch_ops b f =
  for k = 0 to b.count - 1 do
    f k b.ops.(k)
  done

let batch_op_list b = List.init b.count (Array.get b.ops)

let parse_batch_ops s = Result.map batch_op_list (parse_ops s 0)

(* [String.sub payload 0 (String.length p) = p], without the copy. *)
let rec prefix_from payload p i =
  i >= String.length p || (payload.[i] = p.[i] && prefix_from payload p (i + 1))

let has_prefix payload p = String.length payload >= String.length p && prefix_from payload p 0

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
        let* ops = parse_ops payload 7 in
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
  | Batch b -> "vBatch:" ^ render_batch_ops (batch_op_list b)
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

let add_reply out ~pc_reg = function
  | Ok_reply -> Out.add_string out "OK"
  | Error_reply n ->
    Out.add_char out 'E';
    add_hex ~width:2 out (n land 0xFF)
  | Hex_data raw ->
    String.iter
      (fun c ->
        Out.add_char out (hex_digit (Char.code c lsr 4));
        Out.add_char out (hex_digit (Char.code c)))
      raw
  | Stop { signal; pc; detail } ->
    Out.add_char out 'T';
    add_hex ~width:2 out (signal land 0xFF);
    add_hex ~width:2 out pc_reg;
    Out.add_char out ':';
    add_hex ~width:8 out pc;
    Out.add_char out ';';
    Out.add_string out detail;
    Out.add_char out ';'
  | Exited code ->
    Out.add_char out 'W';
    add_hex ~width:2 out (code land 0xFF)
  | Supported s | Raw s -> Out.add_string out s

(* --- batch sub-replies -------------------------------------------------- *)

type sub_reply = Sub_ok | Sub_error | Sub_data | Sub_counted | Sub_stop | Sub_end

let add_sub_ok out = Out.add_char out 'K'

let add_sub_error out n =
  Out.add_char out 'E';
  add_hex ~width:2 out (n land 0xFF)

let add_sub_data out data =
  Out.add_char out 'd';
  add_segment out data

let add_sub_counted out ~count data =
  Out.add_char out 'k';
  add_hex out count;
  Out.add_char out ',';
  add_segment out data

let rec plain s i = i >= String.length s || ((not (must_escape s.[i])) && plain s (i + 1))

let add_sub_stop out ~pc_reg reply =
  Out.add_char out 's';
  match reply with
  | Stop { pc; detail; _ } when pc >= 0 && plain detail 0 ->
    (* Nothing in it needs escaping, so the payload's length is known
       before it is written: 'T', the signal, ':', ';' twice and the
       fields. *)
    add_hex out
      (6 + Int.max 2 (hex_width pc_reg) + Int.max 8 (hex_width pc) + String.length detail);
    Out.add_char out ':';
    add_reply out ~pc_reg reply
  | _ ->
    let payload = Out.create () in
    add_reply payload ~pc_reg reply;
    add_segment out (Out.contents payload)

(* s.[i .. stop - 1] itself when it is all of [s]. *)
let slice s i stop = if i = 0 && stop = String.length s then s else String.sub s i (stop - i)

let rec index_in s i stop ch =
  if i >= stop then -1 else if String.unsafe_get s i = ch then i else index_in s (i + 1) stop ch

(* "Txx<reg>:<pc8>;<detail>;" in s.[pos .. stop - 1], which starts with
   'T' and holds at least three bytes. *)
let stop_at ~pc_reg s pos stop =
  let signal = hex_value s (pos + 1) (pos + 3) in
  if signal < 0 then Error (hex_error s (pos + 1) (pos + 3))
  else
    match index_in s (pos + 3) stop ':' with
    | -1 -> Error (Printf.sprintf "stop reply missing register: %S" (slice s pos stop))
    | colon ->
      let reg = hex_value s (pos + 3) colon in
      if reg < 0 then Error (hex_error s (pos + 3) colon)
      else if reg <> pc_reg then
        Error (Printf.sprintf "stop reply for unexpected register %d" reg)
      else if stop - (colon + 1) < 9 then Error "stop reply too short"
      else
        let pc = hex_value s (colon + 1) (colon + 9) in
        if pc < 0 then Error (hex_error s (colon + 1) (colon + 9))
        else
          let d = colon + 10 in
          let d_end = if stop > d && s.[stop - 1] = ';' then stop - 1 else stop in
          Ok (Stop { signal; pc; detail = String.sub s d (d_end - d) })

(* The reply in s.[pos .. stop - 1]. *)
let reply_at ~pc_reg s pos stop =
  let len = stop - pos in
  if len = 2 && s.[pos] = 'O' && s.[pos + 1] = 'K' then Ok Ok_reply
  else if len = 3 && s.[pos] = 'E' then
    match hex_value s (pos + 1) (pos + 3) with
    | -1 -> Error (hex_error s (pos + 1) (pos + 3))
    | n -> Ok (Error_reply n)
  else if len >= 3 && s.[pos] = 'W' then
    match hex_value s (pos + 1) (pos + 3) with
    | -1 -> Error (hex_error s (pos + 1) (pos + 3))
    | n -> Ok (Exited n)
  else if len >= 3 && s.[pos] = 'T' then stop_at ~pc_reg s pos stop
  else Ok (Raw (slice s pos stop))

let parse_reply ~pc_reg payload = reply_at ~pc_reg payload 0 (String.length payload)

module Replies = struct
  type t = {
    c : cursor;
    mutable length : int;
    mutable left : int;  (* items not yet read *)
    mutable value : int;
    mutable seg : int;  (* the current item's binary segment *)
    mutable seg_end : int;
    mutable seg_len : int;  (* its logical length *)
  }

  let no_segment r =
    r.seg <- 0;
    r.seg_end <- 0;
    r.seg_len <- 0

  let segment r rawlen =
    r.seg <- r.c.i;
    r.seg_end <- segment_end r.c rawlen;
    r.seg_len <- rawlen;
    r.c.i <- r.seg_end

  (* One item at the cursor, into [r]'s fields. *)
  let item r =
    let c = r.c in
    let ch = c.s.[c.i] in
    c.i <- c.i + 1;
    match ch with
    | 'K' ->
      no_segment r;
      Sub_ok
    | 'E' ->
      if c.i + 2 > String.length c.s then raise (Bad "truncated error reply");
      (match hex_value c.s c.i (c.i + 2) with
       | -1 -> raise (Bad (hex_error c.s c.i (c.i + 2)))
       | code ->
         c.i <- c.i + 2;
         r.value <- code;
         no_segment r;
         Sub_error)
    | 'd' ->
      let len = hex_at c in
      expect c ':';
      segment r len;
      Sub_data
    | 'k' ->
      r.value <- hex_at c;
      expect c ',';
      let len = hex_at c in
      expect c ':';
      segment r len;
      Sub_counted
    | 's' ->
      let len = hex_at c in
      expect c ':';
      segment r len;
      Sub_stop
    | ch -> raise (Bad (Printf.sprintf "unknown batch reply '%c'" ch))

  let read s ~pos =
    let r =
      { c = cursor s pos; length = 0; left = 0; value = 0; seg = 0; seg_end = 0;
        seg_len = 0 }
    in
    match
      check_items ~empty:"empty batch reply" ~empty_item:"empty batch reply item"
        (fun r _ -> item r)
        r r.c
    with
    | Error e -> Error (Eof_error.protocol e)
    | Ok k ->
      r.c.i <- pos;
      r.length <- k;
      r.left <- k;
      Ok r

  let length r = r.length

  let next r =
    if r.left = 0 then Sub_end
    else begin
      if r.left < r.length then r.c.i <- r.c.i + 1 (* the ';' before it *);
      r.left <- r.left - 1;
      item r
    end

  let value r = r.value

  let data r = if r.seg_len = 0 then "" else segment_string r.c.s r.seg r.seg_end r.seg_len

  let stop r ~pc_reg =
    Result.map_error Eof_error.protocol
      (if r.seg_end - r.seg = r.seg_len then reply_at ~pc_reg r.c.s r.seg r.seg_end
       else parse_reply ~pc_reg (data r))
end

(* --- typed boundary ----------------------------------------------------

   The parsers above compose over plain strings; the public entry points
   re-type their errors as [Eof_error.Protocol] so every consumer up the
   stack speaks one error language. (Shadowing below the internal uses
   keeps the string combinators composable in here.) *)

let typed r = Result.map_error Eof_error.protocol r

let unescape_binary s = typed (unescape_binary s)

let parse_batch_ops s = typed (parse_batch_ops s)

let parse_command payload = typed (parse_command payload)

let parse_reply ~pc_reg payload = typed (parse_reply ~pc_reg payload)
