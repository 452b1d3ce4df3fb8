open Eof_hw

type arg = W_int of int64 | W_str of string | W_res of int

type call = { api_index : int; args : arg list }

type program = call list

let magic = 0x454F4650l (* "EOFP" read as a big-endian word *)

let results_magic = 0x45524553l (* "ERES" *)

let max_calls = 64

let max_args = 8

let max_str = 1024

let tag_int = 0

let tag_str = 1

let tag_res = 2

(* --- encoding (host side) ------------------------------------------- *)

let put_u16 ~endianness buf v =
  let lo = v land 0xFF and hi = (v lsr 8) land 0xFF in
  match endianness with
  | Arch.Little ->
    Buffer.add_char buf (Char.chr lo);
    Buffer.add_char buf (Char.chr hi)
  | Arch.Big ->
    Buffer.add_char buf (Char.chr hi);
    Buffer.add_char buf (Char.chr lo)

let put_u64 ~endianness buf v =
  match endianness with
  | Arch.Little -> Buffer.add_int64_le buf v
  | Arch.Big -> Buffer.add_int64_be buf v

let validate program =
  if List.length program > max_calls then Error "too many calls"
  else
    let check_call i call =
      if call.api_index < 0 || call.api_index > 0xFFFF then
        Error (Printf.sprintf "call %d: api index out of range" i)
      else if List.length call.args > max_args then
        Error (Printf.sprintf "call %d: too many arguments" i)
      else
        List.fold_left
          (fun acc arg ->
            match (acc, arg) with
            | (Error _ as e), _ -> e
            | Ok (), W_str s when String.length s > max_str ->
              Error (Printf.sprintf "call %d: string argument too long" i)
            | Ok (), W_res k when k < 0 || k >= i ->
              Error (Printf.sprintf "call %d: resource reference %d not a prior call" i k)
            | Ok (), _ -> Ok ())
          (Ok ()) call.args
    in
    let rec go i = function
      | [] -> Ok ()
      | call :: rest -> (match check_call i call with Ok () -> go (i + 1) rest | e -> e)
    in
    go 0 program

(* Appends to a caller-owned (typically reused) buffer: the per-payload
   hot path encodes thousands of programs, and letting the campaign keep
   one pre-sized buffer removes the per-call [Buffer.create] churn the
   same way [decode_*_into] removed it on the drain side. *)
let encode_into ~endianness buf program =
  match validate program with
  | Error _ as e -> e
  | Ok () ->
    put_u16 ~endianness buf 1 (* version *);
    put_u16 ~endianness buf (List.length program);
    List.iter
      (fun call ->
        put_u16 ~endianness buf call.api_index;
        Buffer.add_char buf (Char.chr (List.length call.args));
        Buffer.add_char buf '\000';
        List.iter
          (fun arg ->
            match arg with
            | W_int v ->
              Buffer.add_char buf (Char.chr tag_int);
              put_u64 ~endianness buf v
            | W_str s ->
              Buffer.add_char buf (Char.chr tag_str);
              put_u16 ~endianness buf (String.length s);
              Buffer.add_string buf s
            | W_res k ->
              Buffer.add_char buf (Char.chr tag_res);
              put_u16 ~endianness buf k)
          call.args)
      program;
    Ok ()

let encode ~endianness program =
  let buf = Buffer.create 256 in
  match encode_into ~endianness buf program with
  | Error _ as e -> e
  | Ok () -> Ok (Buffer.contents buf)

(* --- decoding over an abstract byte source --------------------------- *)

type cursor = { read_u8 : int -> int; len : int; mutable pos : int }

exception Decode_fail of string

let need cur n =
  if cur.pos + n > cur.len then raise (Decode_fail "truncated program")

let u8 cur =
  need cur 1;
  let v = cur.read_u8 cur.pos in
  cur.pos <- cur.pos + 1;
  v

let u16 ~endianness cur =
  let a = u8 cur in
  let b = u8 cur in
  match endianness with Arch.Little -> a lor (b lsl 8) | Arch.Big -> (a lsl 8) lor b

let u64 ~endianness cur =
  let acc = ref 0L in
  (match endianness with
   | Arch.Little ->
     for i = 0 to 7 do
       acc := Int64.logor !acc (Int64.shift_left (Int64.of_int (u8 cur)) (8 * i))
     done
   | Arch.Big ->
     for _ = 0 to 7 do
       acc := Int64.logor (Int64.shift_left !acc 8) (Int64.of_int (u8 cur))
     done);
  !acc

let decode_cursor ~endianness cur =
  try
    let version = u16 ~endianness cur in
    if version <> 1 then Error (Printf.sprintf "unsupported program version %d" version)
    else begin
      let count = u16 ~endianness cur in
      if count > max_calls then Error "too many calls"
      else begin
        let calls = ref [] in
        for i = 0 to count - 1 do
          let api_index = u16 ~endianness cur in
          let argc = u8 cur in
          let _pad = u8 cur in
          if argc > max_args then raise (Decode_fail "too many arguments");
          let args = ref [] in
          for _ = 1 to argc do
            let tag = u8 cur in
            let arg =
              if tag = tag_int then W_int (u64 ~endianness cur)
              else if tag = tag_str then begin
                let n = u16 ~endianness cur in
                if n > max_str then raise (Decode_fail "string too long");
                let b = Bytes.create n in
                for j = 0 to n - 1 do
                  Bytes.set b j (Char.chr (u8 cur))
                done;
                W_str (Bytes.unsafe_to_string b)
              end
              else if tag = tag_res then begin
                let k = u16 ~endianness cur in
                if k >= i then raise (Decode_fail "forward resource reference");
                W_res k
              end
              else raise (Decode_fail (Printf.sprintf "bad argument tag %d" tag))
            in
            args := arg :: !args
          done;
          calls := { api_index; args = List.rev !args } :: !calls
        done;
        Ok (List.rev !calls)
      end
    end
  with Decode_fail msg -> Error msg

let decode ~endianness s =
  decode_cursor ~endianness
    { read_u8 = (fun i -> Char.code s.[i]); len = String.length s; pos = 0 }

let header_bytes = 8

let decode_from_ram ~mem ~endianness ~base =
  let m = Memory.read_u32 mem base in
  if not (Int32.equal m magic) then Error "no program magic in mailbox"
  else begin
    let len = Int32.to_int (Memory.read_u32 mem (base + 4)) in
    if len < 0 || len > 0x4000 then Error "implausible program length"
    else
      decode_cursor ~endianness
        { read_u8 = (fun i -> Memory.read_u8 mem (base + header_bytes + i)); len; pos = 0 }
  end

let write_to_ram ~mem ~endianness ~base ~limit program =
  match encode ~endianness program with
  | Error _ as e -> e
  | Ok payload ->
    if header_bytes + String.length payload > limit then Error "program exceeds mailbox"
    else begin
      Memory.write_u32 mem base magic;
      Memory.write_u32 mem (base + 4) (Int32.of_int (String.length payload));
      Memory.write_bytes mem ~addr:(base + header_bytes) (Bytes.of_string payload);
      Ok ()
    end

module Results = struct
  type t = { executed : int; statuses : int32 list }

  let byte_size n = 8 + (4 * n)

  let write ~mem ~endianness ~base t =
    ignore endianness;
    Memory.write_u32 mem base results_magic;
    Memory.write_u32 mem (base + 4) (Int32.of_int t.executed);
    List.iteri (fun i s -> Memory.write_u32 mem (base + 8 + (4 * i)) s) t.statuses

  let read ~raw ~endianness =
    if String.length raw < 8 then Error "results too short"
    else begin
      let b = Bytes.unsafe_of_string raw in
      let word off =
        match endianness with
        | Arch.Little -> Bytes.get_int32_le b off
        | Arch.Big -> Bytes.get_int32_be b off
      in
      if not (Int32.equal (word 0) results_magic) then Error "no results magic"
      else begin
        let executed = Int32.to_int (word 4) in
        if executed < 0 || 8 + (4 * executed) > String.length raw then
          Error "results length mismatch"
        else
          Ok
            {
              executed;
              statuses = List.init executed (fun i -> word (8 + (4 * i)));
            }
      end
    end
end
