(* Pages are the dirty-tracking granule for copy-on-write snapshots: every
   mutator stamps the touched pages with the region's current generation,
   and snapshot restore copies back only pages stamped after the capture
   generation. 256 bytes keeps the stamp arrays small while still giving
   16 granules per 4 KiB flash sector. *)
let page_size = 256

let page_shift = 8

(* A list of page indices, each stored as a u16 in [pages]; the first
   [len] are live. It has room for every page of the region and holds a
   page at most once, so a push never overflows. *)
type page_list = { pages : Bytes.t; mutable len : int }

type t = {
  base : int;
  data : Bytes.t;
  endianness : Arch.endianness;
  stamps : int array;
  (* The pages stamped with the current generation, i.e. written after
     the latest capture point [generation - 1]: exactly what a restore of
     that capture copies back. A page joins when its stamp first moves
     past the capture point; a new capture and a restore empty it. *)
  stamped : page_list;
  (* Per-page "may hold a nonzero byte" map, and the list of flagged
     pages (a page joins on its 0->1 flip). Lets [clear] zero only pages
     that were actually written since the last clear, making power-on RAM
     resets O(dirty pages) instead of O(region size). *)
  nz : Bytes.t;
  nonzero : page_list;
  mutable generation : int;
  (* Bumped by every mutator, including snapshot restores that rewind a
     page's stamp. Content caches (the flash boot-CRC memo) key on it:
     an unchanged count proves no byte changed. *)
  mutable mutations : int;
}

let pages_of_size size = (size + page_size - 1) / page_size

let page_list n_pages = { pages = Bytes.create (2 * n_pages); len = 0 }

let push l p =
  Bytes.set_uint16_le l.pages (2 * l.len) p;
  l.len <- l.len + 1

let nth l i = Bytes.get_uint16_le l.pages (2 * i)

let create ~base ~size ~endianness =
  if size <= 0 then invalid_arg "Memory.create: size";
  if base < 0 then invalid_arg "Memory.create: base";
  let n_pages = pages_of_size size in
  if n_pages > 0x10000 then invalid_arg "Memory.create: more pages than a u16 can index";
  {
    base;
    data = Bytes.make size '\000';
    endianness;
    stamps = Array.make n_pages 0;
    stamped = page_list n_pages;
    nz = Bytes.make n_pages '\000';
    nonzero = page_list n_pages;
    generation = 1;
    mutations = 0;
  }

let base t = t.base

let page_count t = Array.length t.stamps

let mutations t = t.mutations

(* A page is on [stamped] iff its stamp equals the current generation,
   and on [nonzero] iff its [nz] flag is set. *)
let stamp_page t p =
  if Array.unsafe_get t.stamps p <> t.generation then begin
    Array.unsafe_set t.stamps p t.generation;
    push t.stamped p
  end

let flag_nonzero t p =
  if Bytes.unsafe_get t.nz p = '\000' then begin
    Bytes.unsafe_set t.nz p '\001';
    push t.nonzero p
  end

let touch_range t off len =
  if len > 0 then begin
    t.mutations <- t.mutations + 1;
    for p = off lsr page_shift to (off + len - 1) lsr page_shift do
      stamp_page t p;
      flag_nonzero t p
    done
  end

(* Written without [addr + len], which can pass max_int and wrap: an
   address and length from the debug link are any non-negative ints. *)
let in_range t ~addr ~len =
  len >= 0 && addr >= t.base && addr - t.base <= Bytes.length t.data - len

let check t addr len =
  if not (in_range t ~addr ~len) then
    Fault.bus ~address:addr
      (Printf.sprintf "access of %d byte(s) outside region [0x%08x,0x%08x)" len t.base
         (t.base + Bytes.length t.data))

let read_u8 t addr =
  check t addr 1;
  Char.code (Bytes.unsafe_get t.data (addr - t.base))

let read_u32 t addr =
  check t addr 4;
  let off = addr - t.base in
  match t.endianness with
  | Arch.Little -> Bytes.get_int32_le t.data off
  | Arch.Big -> Bytes.get_int32_be t.data off

let write_u32 t addr v =
  check t addr 4;
  let off = addr - t.base in
  touch_range t off 4;
  match t.endianness with
  | Arch.Little -> Bytes.set_int32_le t.data off v
  | Arch.Big -> Bytes.set_int32_be t.data off v

let read_bytes t ~addr ~len =
  check t addr len;
  Bytes.sub t.data (addr - t.base) len

let write_bytes t ~addr b =
  check t addr (Bytes.length b);
  let off = addr - t.base in
  touch_range t off (Bytes.length b);
  Bytes.blit b 0 t.data off (Bytes.length b)

let crc_range t ~addr ~len =
  check t addr len;
  Eof_util.Crc32.digest_bytes t.data ~pos:(addr - t.base) ~len

let fill t ~addr ~len c =
  check t addr len;
  let off = addr - t.base in
  touch_range t off len;
  Bytes.fill t.data off len c

let page_len t p =
  let off = p lsl page_shift in
  min page_size (Bytes.length t.data - off)

let clear t =
  let l = t.nonzero in
  for i = 0 to l.len - 1 do
    let p = nth l i in
    Bytes.fill t.data (p lsl page_shift) (page_len t p) '\000';
    (* Content changed, so the page is dirty relative to any snapshot. *)
    t.mutations <- t.mutations + 1;
    stamp_page t p;
    Bytes.unsafe_set t.nz p '\000'
  done;
  l.len <- 0

let mark_generation t =
  let g = t.generation in
  t.generation <- g + 1;
  t.stamped.len <- 0;
  g

let baseline t = Bytes.copy t.data

let restore_pages t ~baseline ~since =
  if Bytes.length baseline <> Bytes.length t.data then
    invalid_arg "Memory.restore_pages: baseline size mismatch";
  (* [stamped] only knows the pages written since the latest capture. *)
  if since <> t.generation - 1 then
    invalid_arg "Memory.restore_pages: a later capture superseded this one";
  let l = t.stamped in
  for i = 0 to l.len - 1 do
    let p = nth l i in
    let off = p lsl page_shift in
    Bytes.blit baseline off t.data off (page_len t p);
    (* The page now provably matches the capture, so it is clean with
       respect to this snapshot; conservatively flag it nonzero so a
       later [clear] rewrites it. Its stamp goes back in time but its
       bytes may differ from what a content cache last saw, so the
       mutation count still moves forward. *)
    t.mutations <- t.mutations + 1;
    Array.unsafe_set t.stamps p since;
    flag_nonzero t p
  done;
  let copied = l.len in
  l.len <- 0;
  copied
