(** Fixed-block memory pools.

    The pool's storage is a heap allocation carved into equal blocks with
    a free-list threaded through block indices. A pool created with a
    zero block size is representable — the RT-Thread personality's
    [rt_mp_create] fails to reject it, and [rt_mp_alloc] then divides by
    the zero stride (bug #7) — so validation here is the caller's
    responsibility. *)

type pool = private {
  block_size : int;
  block_count : int;
  base_addr : int;
  mutable free_list : int list;  (** free block indices *)
  mutable allocated : int;
}

type Kobj.payload += Pool of pool

val create_unchecked :
  reg:Kobj.t -> heap:Heap.t -> name:string -> block_size:int -> block_count:int ->
  (Kobj.obj, int64) result
(** Carves storage WITHOUT validating geometry (zero sizes included:
    the storage allocation is then the minimum heap block).
    [Kerr.enomem] if the heap cannot back it. *)

val alloc : pool -> (int, int64) result
(** Block address; [Kerr.enomem] when exhausted.
    @raise Fault.Trap usage fault on zero-stride geometry. *)

val free_block : pool -> int -> (unit, int64) result
(** Return a block by address; [Kerr.einval] if not a live block. *)

val available : pool -> int

val of_obj : Kobj.obj -> pool option
