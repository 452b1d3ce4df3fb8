(** Kernel object registry.

    Every kernel object (task, queue, semaphore, timer, device, ...)
    gets an integer handle. Handles are never reused within a boot, and
    the registry deliberately keeps records for detached/deleted objects:
    several of the seeded Table-2 bugs are stale-handle bugs, which only
    exist because kernel code can still reach a dead object's carcass —
    as on the real RTOSes, where the handle is just a pointer. *)

type state = Active | Detached | Deleted

type payload = ..
(** Extended by each kernel-object module with its state record. *)

type obj = {
  handle : int;
  kind : string;
  mutable name : string;
  mutable state : state;  (** written only by {!detach} and {!delete} *)
  mutable payload : payload;
}

type t

val create : unit -> t

val register : t -> kind:string -> name:string -> payload -> obj

val lookup : t -> int -> obj option
(** Unchecked lookup: returns detached/deleted carcasses too. Personality
    code that uses this without a state check is reproducing a bug. *)

val lookup_active : t -> int -> kind:string -> (obj, int64) result
(** The safe accessor: [Error Kerr.enoent] for unknown/dead handles,
    [Error Kerr.einval] for a kind mismatch. *)

val detach : obj -> unit

val delete : obj -> unit

val active_count : t -> int

val first_of_kind : t -> string -> obj option
(** The oldest active object of a kind (lowest handle), if any. A
    per-kind cursor remembers the handle below which no object of the
    kind is active, and each call scans forward from it, so the cost is
    amortised O(1) per registered object. This relies on handles only
    growing and on no object ever becoming [Active] again: {!detach} and
    {!delete} are the only writes to [state]. *)
