(** First-fit free-list heap allocator over a board RAM region.

    Block layout (all words in the region's endianness):

    {v
    +0  payload size in bytes (multiple of 8)
    +4  status word: 0xFEED0000 free, 0xFEED0001 used
    +8  payload...
    v}

    Blocks tile the region exactly. Every {!alloc}, {!free},
    {!used_bytes} and {!free_bytes} validates the chain of headers from
    the base, as a kernel's metadata walk does; a corrupted header (from
    overflowing kernel code — e.g. the [rt_smem_setname] bug scribbles
    the next block's magic) raises a memory-management fault, which is
    precisely how such corruption shows up on hardware.

    The validation costs what changed. The heap keeps a shadow index of
    the chain (header addresses, sizes, used flags, in address order)
    and the region's {!Eof_hw.Memory.mutations} count after its own last
    write. An operation re-reads, in chain order, only the indexed
    headers on pages {!Eof_hw.Memory.written_since} that count. Until
    the first re-read header that differs from the index, the chain in
    memory is the indexed chain, so the walk would reach that header
    first too: an invalid one faults with the walk's message at the
    walk's address, and a valid but different one re-walks the chain
    from there. A fault during that re-walk leaves the index's tail
    unknown, so the next operation walks the whole chain. Results, the
    bytes written and every fault are those of a full walk per call. *)

type t

val init : mem:Eof_hw.Memory.t -> base:int -> size:int -> (t, string) result
(** Carve one free block covering the region. Fails on misaligned or
    undersized regions — callers that ignore this failure and use the
    heap anyway reproduce the Zephyr [k_heap_init] bug. *)

val base : t -> int

val memory : t -> Eof_hw.Memory.t
(** The RAM region the heap lives in (payload addresses index into it). *)

val size : t -> int

val alloc : t -> int -> int option
(** [alloc t n] returns the payload address of a fresh block of at least
    [n] bytes, or [None] when no block fits. [n <= 0] is rounded up to
    the minimum allocation. @raise Fault.Trap on corrupted metadata. *)

val free : t -> int -> (unit, string) result
(** Free by payload address. Rejects addresses that are not live block
    payloads; frees coalesce with free neighbours.
    @raise Fault.Trap on corrupted metadata. *)

val lock : t -> (unit, [ `Already_locked ]) result
(** The allocator's non-recursive lock; re-entry is the RT-Thread
    [_heap_lock] bug. *)

val unlock : t -> unit

val used_bytes : t -> int

val free_bytes : t -> int

val check : t -> (unit, string) result
(** Non-faulting integrity check (a [Result] version of what alloc/free
    enforce): the chain must validate, and the index must tile the
    region exactly. No kernel path calls it; it is the invariant the
    random alloc/free property checks. *)
