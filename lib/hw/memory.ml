(* Pages are the dirty-tracking granule for copy-on-write snapshots: every
   mutator stamps the touched pages with the region's current generation,
   and snapshot restore copies back only pages stamped after the capture
   generation. 256 bytes keeps the stamp arrays small while still giving
   16 granules per 4 KiB flash sector. *)
let page_size = 256

let page_shift = 8

type t = {
  base : int;
  data : Bytes.t;
  endianness : Arch.endianness;
  stamps : int array;
  (* Per-page "may hold a nonzero byte" map. Lets [clear] zero only pages
     that were actually written since the last clear, making power-on RAM
     resets O(dirty pages) instead of O(region size). *)
  nz : Bytes.t;
  mutable generation : int;
  (* Bumped by every mutator, including snapshot restores that rewind a
     page's stamp. Content caches (the flash boot-CRC memo) key on it:
     an unchanged count proves no byte changed. *)
  mutable mutations : int;
}

let pages_of_size size = (size + page_size - 1) / page_size

let create ~base ~size ~endianness =
  if size <= 0 then invalid_arg "Memory.create: size";
  if base < 0 then invalid_arg "Memory.create: base";
  let n_pages = pages_of_size size in
  {
    base;
    data = Bytes.make size '\000';
    endianness;
    stamps = Array.make n_pages 0;
    nz = Bytes.make n_pages '\000';
    generation = 1;
    mutations = 0;
  }

let base t = t.base

let page_count t = Array.length t.stamps

let mutations t = t.mutations

let touch_range t off len =
  if len > 0 then begin
    t.mutations <- t.mutations + 1;
    for p = off lsr page_shift to (off + len - 1) lsr page_shift do
      Array.unsafe_set t.stamps p t.generation;
      Bytes.unsafe_set t.nz p '\001'
    done
  end

let in_range t ~addr ~len =
  len >= 0 && addr >= t.base && addr + len <= t.base + Bytes.length t.data

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
  let n = Array.length t.stamps in
  for p = 0 to n - 1 do
    if Bytes.unsafe_get t.nz p <> '\000' then begin
      Bytes.fill t.data (p lsl page_shift) (page_len t p) '\000';
      (* Content changed, so the page is dirty relative to any snapshot. *)
      t.mutations <- t.mutations + 1;
      Array.unsafe_set t.stamps p t.generation;
      Bytes.unsafe_set t.nz p '\000'
    end
  done

let mark_generation t =
  let g = t.generation in
  t.generation <- g + 1;
  g

let baseline t = Bytes.copy t.data

let restore_pages t ~baseline ~since =
  if Bytes.length baseline <> Bytes.length t.data then
    invalid_arg "Memory.restore_pages: baseline size mismatch";
  let copied = ref 0 in
  for p = 0 to Array.length t.stamps - 1 do
    if Array.unsafe_get t.stamps p > since then begin
      let off = p lsl page_shift in
      let len = page_len t p in
      Bytes.blit baseline off t.data off len;
      (* The page now provably matches the capture, so it is clean with
         respect to this snapshot; conservatively flag it nonzero so a
         later [clear] rewrites it. Its stamp goes back in time but its
         bytes may differ from what a content cache last saw, so the
         mutation count still moves forward. *)
      t.mutations <- t.mutations + 1;
      Array.unsafe_set t.stamps p since;
      Bytes.unsafe_set t.nz p '\001';
      incr copied
    end
  done;
  !copied
