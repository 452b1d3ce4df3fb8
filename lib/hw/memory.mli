(** A contiguous byte-addressable memory region (RAM or a flash backing
    store) with a base address in the target address space.

    Accesses outside the region raise a {!Fault.Trap} bus fault, matching
    how a microcontroller bus matrix reacts to unmapped addresses. Wide
    accesses honour the region's endianness.

    Every mutator records the touched pages against the region's current
    {e generation}, the bookkeeping behind copy-on-write snapshots
    ({!Snapshot}): capturing a snapshot bumps the generation, and
    restoring copies back only pages written since the capture. *)

type t

val page_size : int
(** Dirty-tracking granule in bytes (256). *)

val create : base:int -> size:int -> endianness:Arch.endianness -> t
(** Zero-filled region of [size] bytes mapped at [base]. *)

val base : t -> int

val in_range : t -> addr:int -> len:int -> bool

val read_u8 : t -> int -> int

val read_u32 : t -> int -> int32

val write_u32 : t -> int -> int32 -> unit

val read_bytes : t -> addr:int -> len:int -> Bytes.t

val write_bytes : t -> addr:int -> Bytes.t -> unit

val crc_range : t -> addr:int -> len:int -> int32
(** CRC-32 of [\[addr, addr+len)], computed over the backing store in
    place (no copy). @raise Fault.Trap if out of range. *)

val fill : t -> addr:int -> len:int -> char -> unit

val clear : t -> unit
(** Zero the whole region (power-on reset of RAM). Only pages written
    since the previous clear are actually rewritten, so a reset costs
    O(dirty pages) while observable contents stay all-zero. *)

val page_count : t -> int
(** Number of {!page_size} pages covering the region (last page may be
    partial). *)

val mutations : t -> int
(** Monotone count of content mutations: every write, every page
    {!clear} zeroes and every page {!restore_pages} copies back bumps
    it. If it is unchanged between two points, no byte of the region
    changed in between — unlike page stamps, which {!restore_pages}
    rewinds, so a stamp cannot vouch for a page's bytes. *)

val mark_generation : t -> int
(** Return the current generation and advance to the next one. Pages
    written afterwards stamp strictly greater than the returned value —
    this is the capture point of a snapshot. *)

val baseline : t -> Bytes.t
(** Full copy of the current contents, to pair with {!mark_generation}
    as a snapshot's saved state. *)

val restore_pages : t -> baseline:Bytes.t -> since:int -> int
(** Copy every page written after generation [since] back from
    [baseline] (a buffer from {!baseline}, same size) with one bulk blit
    per page, and mark it clean with respect to [since]. Returns the
    number of pages copied — the cost of the restore. Restoring an older
    snapshot invalidates dirty accounting of snapshots captured later;
    keep one live snapshot per region. *)
