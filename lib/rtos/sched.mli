(** Priority-based cooperative task scheduler.

    Tasks are closures invoked one quantum at a time; each kernel tick
    runs the timer wheel and then the highest-priority ready task
    (round-robin within a priority). The agent pumps ticks between API
    calls, which is how spawned worker tasks and timer callbacks
    interleave with the fuzzed call sequence. *)

type task_state = Ready | Suspended | Finished

type tcb = private {
  id : int;  (** kernel-object handle *)
  task_name : string;
  stack_size : int;
  mutable priority : int;  (** 0 = highest, 31 = lowest *)
  mutable state : task_state;
  mutable quanta_run : int;
  mutable last_run : int;
}

type Kobj.payload += Task of tcb

type t

val create : reg:Kobj.t -> wheel:Swtimer.wheel -> t

val max_priority : int
(** 31. *)

val spawn :
  t -> name:string -> priority:int -> stack_size:int -> body:(tcb -> unit) ->
  (Kobj.obj, int64) result
(** [Kerr.einval] on priority outside [0, max_priority] or stack outside
    [128, 65536]; [Kerr.enospc] when the TCB table is full. *)

val tick : t -> unit
(** One kernel tick: advance timers, then run one task quantum. *)

val run_ticks : t -> int -> unit

val suspend : tcb -> unit

val resume : tcb -> unit

val finish : tcb -> unit

val set_priority : tcb -> int -> (unit, int64) result

val ticks : t -> int

val of_obj : Kobj.obj -> tcb option
