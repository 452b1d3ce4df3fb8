open Eof_rtos

(** Helpers shared by the OS personalities. *)

val ( let* ) : ('a, int64) result -> ('a -> Api.outcome) -> Api.outcome
(** Error short-circuiting into an API status outcome. *)

val to_status : (unit, int64) result -> Api.outcome

val clamp_int : int64 -> int
(** Truncate an API int64 argument to a host int, saturating. *)

val spawn_worker :
  Osbuild.ctx -> name:string -> priority:int -> stack_size:int -> flavor:int ->
  (Kobj.obj, int64) result

val pump : Osbuild.ctx -> int -> unit
(** Run kernel ticks (scheduler + timer wheel). *)

val irq_site_count : int
(** Sites an instrumentation block for {!install_irq} must provide. *)

val install_irq : Osbuild.ctx -> instr:Instr.t -> prefix:string -> Api.entry list
(** Wire the paper's future-work interrupt path: registers a GPIO ISR
    that feeds the oldest semaphore/event group (crossing its own
    instrumentation sites, including in-ISR comparisons), arms pin 0 for
    rising edges at boot, and returns two API entries —
    [<prefix>_irq_enable(pin, edge)] and [<prefix>_irq_disable(pin)] —
    so fuzzed programs can reconfigure the peripheral. *)
