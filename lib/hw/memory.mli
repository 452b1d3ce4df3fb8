(** A contiguous byte-addressable memory region (RAM or a flash backing
    store) with a base address in the target address space.

    Accesses outside the region raise a {!Fault.Trap} bus fault, matching
    how a microcontroller bus matrix reacts to unmapped addresses. Wide
    accesses honour the region's endianness.

    Every mutator records the touched pages against the region's current
    {e generation}, the bookkeeping behind copy-on-write snapshots
    ({!Snapshot}): capturing a snapshot bumps the generation, and
    restoring copies back only pages written since the capture.

    Two page lists make resets cost what was touched: the pages stamped
    since the latest capture, and the pages that may hold a nonzero
    byte. A page joins each list once, on its first stamp past the
    capture or its first write since the last {!clear}; {!restore_pages}
    and {!clear} walk their list and empty it, never scanning the
    region.

    A third record lets a reader of the region's own metadata (the
    target heap) re-read only what changed: per page, the {!mutations}
    count at its latest content change ({!written_since}). It exists
    only for regions someone queries. *)

type t

val page_size : int
(** Dirty-tracking granule in bytes (256). *)

val create : base:int -> size:int -> endianness:Arch.endianness -> t
(** Zero-filled region of [size] bytes mapped at [base].
    @raise Invalid_argument if [size] is not positive or spans more than
    65536 pages (16 MiB). *)

val base : t -> int

val in_range : t -> addr:int -> len:int -> bool

val read_u8 : t -> int -> int

val read_u32 : t -> int -> int32

val read_i32 : t -> int -> int
(** [read_u32] as a sign-extended [int], with nothing boxed: for hot
    metadata reads such as heap headers. *)

val write_u32 : t -> int -> int32 -> unit

val read_bytes : t -> addr:int -> len:int -> Bytes.t

val write_bytes : t -> addr:int -> Bytes.t -> unit

val crc_range : t -> addr:int -> len:int -> int32
(** CRC-32 of [\[addr, addr+len)], computed over the backing store in
    place (no copy). @raise Fault.Trap if out of range. *)

val fill : t -> addr:int -> len:int -> char -> unit

val clear : t -> unit
(** Zero the whole region (power-on reset of RAM). Walks the list of
    pages written (or restored) since the previous clear, zeroes and
    stamps each, and empties the list: a reset costs O(dirty pages)
    while observable contents stay all-zero. *)

val page_count : t -> int
(** Number of {!page_size} pages covering the region (last page may be
    partial). *)

val mutations : t -> int
(** Monotone count of content mutations: every write, every page
    {!clear} zeroes and every page {!restore_pages} copies back bumps
    it. If it is unchanged between two points, no byte of the region
    changed in between — unlike page stamps, which {!restore_pages}
    rewinds, so a stamp cannot vouch for a page's bytes. *)

val written_since : t -> int -> since:int -> bool
(** Whether the page holding [addr] changed after the {!mutations} count
    was [since]. Each region keeps, per page, the count at the page's
    latest content change (set by every write, by {!clear} and by
    {!restore_pages}), so a reader that remembers the count after its own
    last look can re-read only what changed since. The record is
    allocated on the first query, with every page set to the current
    count: until then nothing is known, so every page counts as written.
    Regions that are never queried (flash) never allocate it.
    @raise Fault.Trap if [addr] is outside the region. *)

val mark_generation : t -> int
(** Return the current generation and advance to the next one. Pages
    written afterwards stamp strictly greater than the returned value —
    this is the capture point of a snapshot. Empties the stamped-page
    list, which from now on collects the pages written after this
    capture; earlier captures can no longer be restored. *)

val baseline : t -> Bytes.t
(** Full copy of the current contents, to pair with {!mark_generation}
    as a snapshot's saved state. *)

val restore_pages : t -> baseline:Bytes.t -> since:int -> int
(** Copy every page written after generation [since] back from
    [baseline] (a buffer from {!baseline}, same size) with one bulk blit
    per page, and mark it clean with respect to [since]. Walks the
    stamped-page list and empties it. Returns the number of pages
    copied — the cost of the restore.
    @raise Invalid_argument if [since] is not the latest
    {!mark_generation}: only the latest capture is restorable. *)
