(** Software timers driven by the kernel tick.

    A timer wheel advances once per scheduler tick; expiring timers run
    their callbacks in "timer context" — which is how the RT-Thread
    [_heap_lock] re-entry bug gets its interrupt-context flavour. *)

type kind = Oneshot | Periodic

type timer = private {
  kind : kind;
  period : int;  (** ticks *)
  callback : unit -> unit;
  mutable remaining : int;
  mutable active : bool;
  mutable fires : int;
}

type Kobj.payload += Timer of timer

type wheel

val create_wheel : unit -> wheel

val create :
  reg:Kobj.t -> wheel:wheel -> name:string -> kind:kind -> period:int ->
  callback:(unit -> unit) -> (Kobj.obj, int64) result
(** [Kerr.einval] on a non-positive period, [Kerr.enospc] when the
    timer table is full. The timer starts stopped. *)

val start : timer -> unit

val stop : timer -> unit

val tick : wheel -> int
(** Advance one tick; run expiring callbacks. Returns how many fired. *)

val of_obj : Kobj.obj -> timer option
