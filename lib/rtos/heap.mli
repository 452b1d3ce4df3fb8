(** First-fit free-list heap allocator over a board RAM region.

    Block layout (all words in the region's endianness):

    {v
    +0  payload size in bytes (multiple of 8)
    +4  status word: 0xFEED0000 free, 0xFEED0001 used
    +8  payload...
    v}

    Blocks tile the region exactly. The allocator validates metadata on
    every walk; corrupted headers (from overflowing kernel code — e.g.
    the [rt_smem_setname] bug scribbles the next block's magic) raise a
    memory-management fault, which is precisely how such corruption shows
    up on hardware. *)

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
(** Non-faulting integrity walk (a [Result] version of what alloc/free
    enforce): the blocks must tile the region exactly. No kernel path
    calls it; it is the invariant the random alloc/free property checks. *)
