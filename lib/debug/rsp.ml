open Eof_util

(* The codecs below sit on every debug-link exchange, so each end of the
   link renders its frames into one reused output buffer and parses in
   place through one cursor: no Printf, no per-field substrings, no
   option per hex digit. The wire bytes are exactly what the [Printf]
   formats "%x" / "%02x" / "%08x" would produce. *)

let checksum_range s pos stop =
  let acc = ref 0 in
  for i = pos to stop - 1 do
    acc := !acc + Char.code (String.unsafe_get s i)
  done;
  !acc land 0xFF

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

(* Two lowercase hex digits per byte. *)
let add_hex_bytes out s =
  String.iter
    (fun c ->
      Out.add_char out (hex_digit (Char.code c lsr 4));
      Out.add_char out (hex_digit (Char.code c)))
    s

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
    if checksum_range payload 0 (String.length payload) = declared then Packet payload
    else Bad_checksum payload

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
  | Batch of batch_op array
  | Snapshot_save
  | Snapshot_restore

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

let add_segment out data =
  add_hex out (String.length data);
  Out.add_char out ':';
  add_escaped out data

let add_addr_len out addr len =
  add_hex out addr;
  Out.add_char out ',';
  add_hex out len

let add_batch_op out = function
  | B_continue -> Out.add_char out 'c'
  | B_read { addr; len } ->
    Out.add_char out 'r';
    add_addr_len out addr len
  | B_write { addr; data } ->
    Out.add_char out 'w';
    add_hex out addr;
    Out.add_char out ',';
    add_segment out data
  | B_read_counted { count_addr; data_addr; stride; max_count; reset } ->
    Out.add_char out 'k';
    add_addr_len out count_addr data_addr;
    Out.add_char out ',';
    add_addr_len out stride max_count;
    Out.add_char out ',';
    Out.add_char out (if reset then 'r' else 'n')
  | B_monitor cmd ->
    Out.add_char out 'm';
    add_segment out cmd

let add_command out = function
  | Q_supported "" -> Out.add_string out "qSupported"
  | Q_supported features ->
    Out.add_string out "qSupported:";
    Out.add_string out features
  | Read_mem { addr; len } ->
    Out.add_char out 'm';
    add_addr_len out addr len
  | Write_mem { addr; data } ->
    Out.add_char out 'M';
    add_addr_len out addr (String.length data);
    Out.add_char out ':';
    add_hex_bytes out data
  | Insert_breakpoint addr ->
    Out.add_string out "Z0,";
    add_hex out addr;
    Out.add_string out ",2"
  | Remove_breakpoint addr ->
    Out.add_string out "z0,";
    add_hex out addr;
    Out.add_string out ",2"
  | Continue -> Out.add_char out 'c'
  | Step -> Out.add_char out 's'
  | Read_registers -> Out.add_char out 'g'
  | Halt_reason -> Out.add_char out '?'
  | Kill -> Out.add_char out 'k'
  | Flash_erase { addr; len } ->
    Out.add_string out "vFlashErase:";
    add_addr_len out addr len
  | Flash_write { addr; data } ->
    Out.add_string out "vFlashWrite:";
    add_hex out addr;
    Out.add_char out ':';
    add_escaped out data
  | Flash_done -> Out.add_string out "vFlashDone"
  | Monitor cmd ->
    Out.add_string out "qRcmd,";
    add_hex_bytes out cmd
  | Batch ops ->
    Out.add_string out "vBatch:";
    for k = 0 to Array.length ops - 1 do
      if k > 0 then Out.add_char out ';';
      add_batch_op out ops.(k)
    done
  | Snapshot_save -> Out.add_string out "QSnapshot:save"
  | Snapshot_restore -> Out.add_string out "QSnapshot:restore"

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
  | Hex_data raw -> add_hex_bytes out raw
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

(* --- the reader ---------------------------------------------------------

   Every packet field, on both ends, is read through one cursor over the
   section s.[base .. stop - 1]. Readers raise [Bad] and the entry points
   return it as [Error], so the hot path allocates no result per field;
   error offsets are relative to [base]. *)

type cursor = {
  s : string;
  mutable i : int;
  base : int;
  stop : int;
  mutable checked : bool;  (* the check pass is done *)
  mutable escapes : bool;  (* it found an escape in some binary segment *)
}

let cursor s base stop = { s; i = base; base; stop; checked = false; escapes = false }

exception Bad of string

let bad fmt = Printf.ksprintf (fun e -> raise (Bad e)) fmt

(* The hex number at the cursor, its digits up to [limit]: hex digits
   only (no sign, "0x" or '_') and at most max_int. *)
let hex_upto c limit =
  let s = c.s and start = c.i in
  let i = ref start and acc = ref 0 in
  while !i < limit && nibble (String.unsafe_get s !i) <= 15 do
    if !acc > max_int lsr 4 then bad "hex number past max_int at offset %d" (start - c.base);
    acc := (!acc lsl 4) lor nibble (String.unsafe_get s !i);
    incr i
  done;
  if !i = start then bad "expected hex number at offset %d" (start - c.base);
  c.i <- !i;
  !acc

let hex_at c = hex_upto c c.stop

(* Exactly [width] hex digits. *)
let hex_fixed c width =
  let start = c.i in
  let v = hex_upto c (Int.min c.stop (start + width)) in
  if c.i <> start + width then bad "expected %d hex digits at offset %d" width (start - c.base);
  v

let expect c ch =
  if c.i < c.stop && String.unsafe_get c.s c.i = ch then c.i <- c.i + 1
  else bad "expected '%c' at offset %d" ch (c.i - c.base)

let rec matches s i p k =
  k = String.length p || (String.unsafe_get s (i + k) = p.[k] && matches s i p (k + 1))

(* [p] at the cursor, consumed. *)
let skip_prefix c p =
  c.i + String.length p <= c.stop
  && matches c.s c.i p 0
  && (c.i <- c.i + String.length p;
      true)

(* The rest of the section, as text. *)
let rest c =
  let v = String.sub c.s c.i (c.stop - c.i) in
  c.i <- c.stop;
  v

(* The rest of the section, two hex digits per byte. *)
let hex_bytes_rest c =
  let n = c.stop - c.i in
  if n land 1 = 1 then bad "odd-length hex data at offset %d" (c.i - c.base);
  let b = Bytes.create (n / 2) in
  for k = 0 to (n / 2) - 1 do
    let hi = nibble c.s.[c.i + (2 * k)] and lo = nibble c.s.[c.i + (2 * k) + 1] in
    if hi > 15 || lo > 15 then bad "non-hex digit at offset %d" (c.i + (2 * k) - c.base);
    Bytes.unsafe_set b k (Char.unsafe_chr ((hi lsl 4) lor lo))
  done;
  c.i <- c.stop;
  Bytes.unsafe_to_string b

(* Where the [rawlen] logical (unescaped) bytes of }-escaped data that
   start at the cursor end. Length-prefixed segments are what make the
   batch wire format self-delimiting: raw separator bytes inside binary
   data are harmless because the parser consumes by count, not by
   delimiter. *)
let segment_end c rawlen =
  let s = c.s and n = c.stop in
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

(* The segment of [rawlen] logical bytes at the cursor, consumed. *)
let escaped_at c rawlen =
  let stop = segment_end c rawlen in
  let data = segment_string c.s c.i stop rawlen in
  c.i <- stop;
  data

(* The escaped bytes from the cursor to the section's end. *)
let escaped_rest c =
  let rawlen = ref 0 and i = ref c.i in
  while !i < c.stop do
    i := !i + if String.unsafe_get c.s !i = '}' then 2 else 1;
    incr rawlen
  done;
  escaped_at c !rawlen

(* Check the [;]-separated items from the cursor to the end of its
   section, each read by [item x], and count them. *)
let items ~what item x c =
  if c.i >= c.stop then bad "empty %s" what;
  item x;
  let k = ref 1 in
  while c.i < c.stop do
    expect c ';';
    if c.i >= c.stop then bad "empty %s item" what;
    item x;
    incr k
  done;
  c.checked <- true;
  !k

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
      match if c.i < c.stop then c.s.[c.i] else ' ' with
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
  | ch -> bad "unknown batch op '%c'" ch

let batch_ops_at c =
  let ops = ref [] in
  ignore (items ~what:"batch" (fun c -> ops := batch_op_at c :: !ops) c c : int);
  Array.of_list (List.rev !ops)

(* The breakpoint kind after "Z0,<addr>,": any bytes but ','. *)
let skip_kind c =
  while c.i < c.stop do
    if c.s.[c.i] = ',' then bad "unsupported breakpoint spec %S" c.s;
    c.i <- c.i + 1
  done

let addr_len c =
  let addr = hex_at c in
  expect c ',';
  (addr, hex_at c)

let command_at c =
  let s = c.s in
  if c.i >= c.stop then raise (Bad "empty packet");
  match s.[c.i] with
  | 'm' ->
    c.i <- c.i + 1;
    let addr, len = addr_len c in
    Read_mem { addr; len }
  | 'M' ->
    c.i <- c.i + 1;
    let addr, len = addr_len c in
    expect c ':';
    let data = hex_bytes_rest c in
    if String.length data <> len then raise (Bad "M: length mismatch");
    Write_mem { addr; data }
  | ('Z' | 'z') as z ->
    c.i <- c.i + 1;
    expect c '0';
    expect c ',';
    let addr = hex_at c in
    expect c ',';
    skip_kind c;
    if z = 'Z' then Insert_breakpoint addr else Remove_breakpoint addr
  | _ when skip_prefix c "qSupported" ->
    if c.i = c.stop then Q_supported ""
    else begin
      expect c ':';
      Q_supported (rest c)
    end
  | _ when skip_prefix c "qRcmd," -> Monitor (hex_bytes_rest c)
  | _ when skip_prefix c "vFlashErase:" ->
    let addr, len = addr_len c in
    Flash_erase { addr; len }
  | _ when skip_prefix c "vFlashWrite:" ->
    let addr = hex_at c in
    expect c ':';
    Flash_write { addr; data = escaped_rest c }
  | _ when skip_prefix c "vBatch:" -> Batch (batch_ops_at c)
  | _ ->
    let cmd =
      match s with
      | "c" -> Continue
      | "s" -> Step
      | "g" -> Read_registers
      | "?" -> Halt_reason
      | "k" -> Kill
      | "vFlashDone" -> Flash_done
      (* QSnapshot extension: the stub holds one board-side snapshot.
         "save" captures it; "restore" copies dirty pages back. Replies
         are "S<hex>" — pages covered for save, pages copied for
         restore — so the host can account restore cost. *)
      | "QSnapshot:save" -> Snapshot_save
      | "QSnapshot:restore" -> Snapshot_restore
      | _ -> bad "unsupported packet %S" s
    in
    c.i <- c.stop;
    cmd

(* "Txx<reg>:<pc>;<detail>;" at the cursor. *)
let stop_at ~pc_reg c =
  c.i <- c.i + 1;
  let signal = hex_fixed c 2 in
  let reg = hex_at c in
  expect c ':';
  if reg <> pc_reg then bad "stop reply for unexpected register %d" reg;
  let pc = hex_at c in
  expect c ';';
  let d_end = if c.stop > c.i && c.s.[c.stop - 1] = ';' then c.stop - 1 else c.stop in
  Stop { signal; pc; detail = String.sub c.s c.i (d_end - c.i) }

(* The reply in the cursor's section. *)
let reply_at ~pc_reg c =
  let s = c.s and pos = c.i in
  let len = c.stop - pos in
  if len = 2 && s.[pos] = 'O' && s.[pos + 1] = 'K' then Ok_reply
  else if (len = 3 && s.[pos] = 'E') || (len >= 3 && s.[pos] = 'W') then begin
    c.i <- pos + 1;
    let n = hex_fixed c 2 in
    if s.[pos] = 'E' then Error_reply n else Exited n
  end
  else if len >= 3 && s.[pos] = 'T' then stop_at ~pc_reg c
  else if pos = 0 && c.stop = String.length s then Raw s
  else Raw (String.sub s pos len)

let whole s = cursor s 0 (String.length s)

let parse_hex_int s =
  let c = whole s in
  match hex_at c with
  | v when c.i = c.stop -> Ok v
  | _ -> Error (Printf.sprintf "bad hex number %S" s)
  | exception Bad e -> Error e

let parse_command payload =
  let c = whole payload in
  match command_at c with
  | _ when c.i <> c.stop -> Error (Eof_error.protocol (Printf.sprintf "trailing bytes in %S" payload))
  | cmd -> Ok cmd
  | exception Bad e -> Error (Eof_error.protocol e)

let parse_reply ~pc_reg payload =
  match reply_at ~pc_reg (whole payload) with
  | reply -> Ok reply
  | exception Bad e -> Error (Eof_error.protocol e)

let hex_data s =
  match hex_bytes_rest (whole s) with
  | data -> Ok data
  | exception Bad e -> Error (Eof_error.protocol e)

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

  let segment r =
    let c = r.c in
    let rawlen = hex_at c in
    expect c ':';
    r.seg <- c.i;
    r.seg_end <- segment_end c rawlen;
    r.seg_len <- rawlen;
    c.i <- r.seg_end

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
      r.value <- hex_fixed c 2;
      no_segment r;
      Sub_error
    | 'd' ->
      segment r;
      Sub_data
    | 'k' ->
      r.value <- hex_at c;
      expect c ',';
      segment r;
      Sub_counted
    | 's' ->
      segment r;
      Sub_stop
    | ch -> bad "unknown batch reply '%c'" ch

  let read s ~pos =
    let r =
      { c = cursor s pos (String.length s); length = 0; left = 0; value = 0; seg = 0;
        seg_end = 0; seg_len = 0 }
    in
    match items ~what:"batch reply" (fun r -> ignore (item r : sub_reply)) r r.c with
    | exception Bad e -> Error (Eof_error.protocol e)
    | k ->
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
    if r.seg_end - r.seg = r.seg_len then
      match reply_at ~pc_reg (cursor r.c.s r.seg r.seg_end) with
      | reply -> Ok reply
      | exception Bad e -> Error (Eof_error.protocol e)
    else parse_reply ~pc_reg (data r)
end
