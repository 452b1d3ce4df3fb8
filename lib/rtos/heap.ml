open Eof_hw

let header_bytes = 8

let min_alloc = 8

let min_region_bytes = header_bytes + min_alloc

let status_free = 0xFEED0000l

let status_used = 0xFEED0001l

(* The status words as the sign-extended ints [Memory.read_i32] returns. *)
let free_status = Int32.to_int status_free

let used_status = Int32.to_int status_used

(* A block as one int: its payload size (a multiple of 8) with bit 0 set
   when the block is used. A free block's word is its payload. *)
let used_bit = 1

let payload_of w = w land lnot used_bit

let is_used w = w land used_bit <> 0

type t = {
  mem : Memory.t;
  base : int;
  size : int;
  mutable locked : bool;
  (* Shadow index of the block chain in address order: block [i] has its
     header at [addrs.(i)] and its word in [words.(i)], for [i < n]. *)
  mutable addrs : int array;
  mutable words : int array;
  mutable n : int;
  mutable used_total : int;
  (* [Memory.mutations] after the heap's last own write or validation:
     the index matches memory as it stood then. *)
  mutable synced : int;
  (* False after a fault part-way through rebuilding the index, whose
     tail is then unknown: the next operation walks the whole chain. *)
  mutable valid : bool;
  (* A header can span two pages only if the heap is not 8-byte aligned
     relative to the region's pages. *)
  straddles : bool;
}

let write_header mem addr ~payload ~used =
  Memory.write_u32 mem addr (Int32.of_int payload);
  Memory.write_u32 mem (addr + 4) (if used then status_used else status_free)

let init ~mem ~base ~size =
  if size < min_region_bytes then
    Error
      (Printf.sprintf "heap region of %d bytes is below the %d-byte minimum" size
         min_region_bytes)
  else if base mod 8 <> 0 || size mod 8 <> 0 then
    Error "heap region must be 8-byte aligned"
  else if not (Memory.in_range mem ~addr:base ~len:size) then
    Error "heap region outside RAM"
  else begin
    write_header mem base ~payload:(size - header_bytes) ~used:false;
    Ok
      {
        mem;
        base;
        size;
        locked = false;
        addrs = [| base |];
        words = [| size - header_bytes |];
        n = 1;
        used_total = 0;
        synced = Memory.mutations mem;
        valid = true;
        straddles = (base - Memory.base mem) mod 8 <> 0;
      }
  end

let base t = t.base

let memory t = t.mem

let size t = t.size

(* Read and validate the header at [addr]; returns its block word. *)
let read_header t addr =
  let payload = Memory.read_i32 t.mem addr in
  let status = Memory.read_i32 t.mem (addr + 4) in
  if
    (status <> free_status && status <> used_status)
    || payload <= 0
    || payload mod 8 <> 0
    || addr + header_bytes + payload > t.base + t.size
  then
    Fault.mem_manage ~address:addr
      (Printf.sprintf "heap metadata corrupted (size=%d status=0x%08lx)" payload
         (Int32.of_int status));
  if status = used_status then payload lor used_bit else payload

(* --- the index ---------------------------------------------------------- *)

(* Open a slot at [i], shifting the entries after it up by one. *)
let insert t i addr w =
  if t.n = Array.length t.addrs then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    t.addrs <- grow t.addrs;
    t.words <- grow t.words
  end;
  Array.blit t.addrs i t.addrs (i + 1) (t.n - i);
  Array.blit t.words i t.words (i + 1) (t.n - i);
  t.addrs.(i) <- addr;
  t.words.(i) <- w;
  t.n <- t.n + 1;
  if is_used w then t.used_total <- t.used_total + payload_of w

(* Replace entries [i..] by the chain walked in memory from [addr]. *)
let rewalk t i addr =
  t.valid <- false;
  for j = i to t.n - 1 do
    let w = t.words.(j) in
    if is_used w then t.used_total <- t.used_total - payload_of w
  done;
  t.n <- i;
  let limit = t.base + t.size in
  let rec go addr =
    if addr < limit then begin
      let w = read_header t addr in
      insert t t.n addr w;
      go (addr + header_bytes + payload_of w)
    end
  in
  go addr;
  t.valid <- true

let dirty t addr =
  Memory.written_since t.mem addr ~since:t.synced
  || (t.straddles && Memory.written_since t.mem (addr + header_bytes - 1) ~since:t.synced)

(* Bring the index up to date with memory, faulting exactly where a walk
   of the chain from the base would. Up to the first header that differs
   from the index, the chain in memory is the indexed chain, so its
   headers are visited in the walk's order; an unchanged page cannot hold
   a changed header. *)
let sync t =
  let now = Memory.mutations t.mem in
  if not t.valid then rewalk t 0 t.base
  else if now <> t.synced then begin
    let rec go i =
      if i < t.n then begin
        let addr = t.addrs.(i) in
        if not (dirty t addr) then go (i + 1)
        else
          let w = read_header t addr in
          if w = t.words.(i) then go (i + 1) else rewalk t i addr
      end
    in
    go 0
  end;
  t.synced <- now

(* Record the heap's own writes as seen. *)
let wrote t = t.synced <- Memory.mutations t.mem

let round_up n = if n <= 0 then min_alloc else (n + 7) / 8 * 8

let alloc t n =
  let need = round_up n in
  sync t;
  (* First fit; a free block's word is its payload. *)
  let rec find i =
    if i = t.n then -1
    else
      let w = t.words.(i) in
      if (not (is_used w)) && w >= need then i else find (i + 1)
  in
  match find 0 with
  | -1 -> None
  | i ->
    let addr = t.addrs.(i) and payload = t.words.(i) in
    let remainder = payload - need in
    let taken =
      if remainder >= header_bytes + min_alloc then begin
        (* Split: the tail becomes a new free block. *)
        let tail = addr + header_bytes + need in
        write_header t.mem addr ~payload:need ~used:true;
        write_header t.mem tail ~payload:(remainder - header_bytes) ~used:false;
        insert t (i + 1) tail (remainder - header_bytes);
        need
      end
      else begin
        write_header t.mem addr ~payload ~used:true;
        payload
      end
    in
    t.words.(i) <- taken lor used_bit;
    t.used_total <- t.used_total + taken;
    wrote t;
    Some (addr + header_bytes)

(* One pass merging every run of adjacent free blocks into its first
   block, rewriting that block's header once per block it absorbs. *)
let coalesce t =
  let kept = ref 0 in
  for i = 0 to t.n - 1 do
    let w = t.words.(i) in
    let k = !kept in
    if k > 0 && (not (is_used w)) && not (is_used t.words.(k - 1)) then begin
      let merged = t.words.(k - 1) + header_bytes + w in
      write_header t.mem t.addrs.(k - 1) ~payload:merged ~used:false;
      t.words.(k - 1) <- merged
    end
    else begin
      t.addrs.(k) <- t.addrs.(i);
      t.words.(k) <- w;
      kept := k + 1
    end
  done;
  t.n <- !kept

(* Index of the block whose header is at [addr], or -1. *)
let find_block t addr =
  let rec search lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      let a = t.addrs.(mid) in
      if a = addr then mid else if a < addr then search (mid + 1) hi else search lo mid
  in
  search 0 t.n

let free t payload_addr =
  let header_addr = payload_addr - header_bytes in
  if header_addr < t.base || header_addr >= t.base + t.size then
    Error (Printf.sprintf "0x%08x is not inside the heap" payload_addr)
  else begin
    sync t;
    match find_block t header_addr with
    | -1 -> Error (Printf.sprintf "0x%08x is not a block payload" payload_addr)
    | i when not (is_used t.words.(i)) ->
      Error (Printf.sprintf "double free of 0x%08x" payload_addr)
    | i ->
      let payload = payload_of t.words.(i) in
      write_header t.mem header_addr ~payload ~used:false;
      t.words.(i) <- payload;
      t.used_total <- t.used_total - payload;
      coalesce t;
      wrote t;
      Ok ()
  end

let lock t = if t.locked then Error `Already_locked else (t.locked <- true; Ok ())

let unlock t = t.locked <- false

let used_bytes t =
  sync t;
  t.used_total

let free_bytes t =
  sync t;
  t.size - (header_bytes * t.n) - t.used_total

(* The index must tile the region: each block starts where the previous
   one ends, and the last ends at the region's end. *)
let check t =
  match sync t with
  | exception Fault.Trap f -> Error (Fault.to_string f)
  | () ->
    let rec tiles i at =
      if i = t.n then at
      else if t.addrs.(i) <> at then at
      else tiles (i + 1) (at + header_bytes + payload_of t.words.(i))
    in
    (match tiles 0 t.base - t.base with
     | covered when covered = t.size -> Ok ()
     | covered -> Error (Printf.sprintf "blocks tile %d of %d bytes" covered t.size))
