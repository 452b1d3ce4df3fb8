(** Work queues — deferred-work items drained by a kernel worker, the
    mechanism the paper names when contrasting Zephyr's "fully
    preemptive scheduling with work queues" against FreeRTOS's tick
    model.

    Items are one-shot closures; submitting an already-pending item is
    a no-op returning [false] (Zephyr semantics). The queue drains up to
    a budget per tick, so a submission storm back-pressures instead of
    starving the scheduler. *)

type item

type t

val create : drain_per_tick:int -> t

val make_item : (unit -> unit) -> item

val submit : t -> item -> bool
(** [true] if the item was queued, [false] if it was already pending. *)

val pending : t -> int

val drain_tick : t -> int
(** Run up to [drain_per_tick] pending items; returns how many ran. *)
