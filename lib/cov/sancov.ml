open Eof_hw

let variants_per_site = 16

(* Distance thresholds for comparison bucketing: fine near equality so
   a guided fuzzer sees progress as operands converge, coarse far out. *)
let cmp_thresholds =
  [| 1L; 2L; 4L; 8L; 16L; 32L; 64L; 96L; 128L; 176L; 256L; 4096L; 1048576L; Int64.max_int |]

let variant_of_cmp a b =
  if Int64.equal a b then 0
  else begin
    let d = Int64.abs (Int64.sub a b) in
    let d = if Int64.compare d 0L < 0 then Int64.max_int else d in
    let rec find i =
      if i >= Array.length cmp_thresholds then Array.length cmp_thresholds
      else if Int64.compare d cmp_thresholds.(i) <= 0 then i
      else find (i + 1)
    in
    1 + min 14 (find 0)
  end

module Layout = struct
  type t = { base : int; capacity_records : int }

  let cmp_ring_entries = 1024

  let write_index_addr t = t.base

  let records_addr t = t.base + 4

  let cmp_count_addr t = records_addr t + (4 * t.capacity_records)

  let cmp_ring_addr t = cmp_count_addr t + 4

  type counted = { count_addr : int; data_addr : int; stride : int; max_count : int }

  let records t =
    { count_addr = write_index_addr t; data_addr = records_addr t; stride = 4;
      max_count = t.capacity_records }

  let cmp_ring t =
    { count_addr = cmp_count_addr t; data_addr = cmp_ring_addr t; stride = 8;
      max_count = cmp_ring_entries }

  let size_bytes t = 4 + (4 * t.capacity_records) + 4 + (8 * cmp_ring_entries)
end

type mode = Uninstrumented | Instrumented

type t = {
  sitemap : Sitemap.t;
  ram : Memory.t;
  layout : Layout.t;
  mode : mode;
  buf_full_site : int;
}

(* Cycle cost of one instrumented record: the callback body plus the
   buffer store. Drives the §5.5.2 execution-overhead measurement. *)
let record_cost_cycles = 6

let create ~sitemap ~ram ~layout ~mode ~buf_full_site =
  if not (Memory.in_range ram ~addr:layout.Layout.base ~len:(Layout.size_bytes layout)) then
    invalid_arg "Sancov.create: coverage buffer does not fit in RAM";
  { sitemap; ram; layout; mode; buf_full_site }

let edge_capacity t = Sitemap.site_count t.sitemap * variants_per_site

let read_write_index t = Int32.to_int (Memory.read_u32 t.ram (Layout.write_index_addr t.layout))

let set_write_index t v =
  Memory.write_u32 t.ram (Layout.write_index_addr t.layout) (Int32.of_int v)

let append_record t edge_index =
  let idx = read_write_index t in
  let idx =
    if idx >= t.layout.Layout.capacity_records then begin
      (* Buffer full: trap so the host can drain; if nobody drains,
         self-wrap rather than wedging the target. *)
      Eof_exec.Target.site t.buf_full_site;
      let idx' = read_write_index t in
      if idx' >= t.layout.Layout.capacity_records then begin
        set_write_index t 0;
        0
      end
      else idx'
    end
    else idx
  in
  Memory.write_u32 t.ram
    (Layout.records_addr t.layout + (4 * idx))
    (Int32.of_int edge_index);
  set_write_index t (idx + 1)

let record t ~site variant =
  Eof_exec.Target.site site;
  match t.mode with
  | Uninstrumented -> ()
  | Instrumented ->
    (match Sitemap.index_of_addr t.sitemap site with
     | None -> ()
     | Some site_index ->
       Eof_exec.Target.cycles record_cost_cycles;
       append_record t ((site_index * variants_per_site) + variant))

(* write_comp_data: stash the raw operand pair in the wrapping cmp ring
   so the host can harvest comparison constants. Trivial comparisons
   (equal operands, tiny constants) are not worth a slot — real SanCov
   filters const-vs-const the same way. *)
let trivial_operand v = Int64.compare (Int64.logand v 0xFFFFFFFFL) 8L < 0

let append_cmp_pair t a b =
  if Int64.equal a b || trivial_operand a || trivial_operand b then ()
  else
  match t.mode with
  | Uninstrumented -> ()
  | Instrumented ->
    let count = Int32.to_int (Memory.read_u32 t.ram (Layout.cmp_count_addr t.layout)) in
    let slot = (count land max_int) mod Layout.cmp_ring_entries in
    let addr = Layout.cmp_ring_addr t.layout + (8 * slot) in
    Memory.write_u32 t.ram addr (Int64.to_int32 a);
    Memory.write_u32 t.ram (addr + 4) (Int64.to_int32 b);
    Memory.write_u32 t.ram (Layout.cmp_count_addr t.layout) (Int32.of_int (count + 1))

let cmp t ~site a b =
  append_cmp_pair t a b;
  record t ~site (variant_of_cmp a b)

let edge t ~site = record t ~site 0

let decode_records_into ?(pos = 0) ~endianness ~count raw dst =
  if String.length raw < 4 * count then
    invalid_arg "Sancov.decode_records_into: short buffer";
  if pos < 0 || Array.length dst - pos < count then
    invalid_arg "Sancov.decode_records_into: destination too small";
  let b = Bytes.unsafe_of_string raw in
  for i = 0 to count - 1 do
    let v =
      match endianness with
      | Arch.Little -> Bytes.get_int32_le b (4 * i)
      | Arch.Big -> Bytes.get_int32_be b (4 * i)
    in
    dst.(pos + i) <- Int32.to_int v
  done;
  count

let decode_cmp_ring_into ?(pos = 0) ~endianness ~count raw ~a ~b =
  let n = min count (String.length raw / 8) in
  if pos < 0 || Array.length a - pos < n || Array.length b - pos < n then
    invalid_arg "Sancov.decode_cmp_ring_into: destination too small";
  let bytes = Bytes.unsafe_of_string raw in
  let word off =
    match endianness with
    | Arch.Little -> Bytes.get_int32_le bytes off
    | Arch.Big -> Bytes.get_int32_be bytes off
  in
  for i = 0 to n - 1 do
    a.(pos + i) <- Int64.of_int32 (word (8 * i));
    b.(pos + i) <- Int64.of_int32 (word ((8 * i) + 4))
  done;
  n
