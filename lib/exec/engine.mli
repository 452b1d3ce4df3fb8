open Eof_hw

(** The execution engine: runs target code under an effect handler and
    gives the host debugger halt/resume/breakpoint/single-step control.

    One engine instance corresponds to one boot of the target. The host
    drives it exclusively in bounded quanta ({!run}); between quanta the
    target is parked on a captured continuation, which is when the debug
    server services memory reads/writes — mirroring how a hardware probe
    halts the core to access the bus. *)

type stop_reason =
  | Breakpoint_hit of int  (** parked at a breakpointed site *)
  | Fuel_exhausted  (** quantum consumed; target still runnable *)
  | Faulted of Fault.t  (** parked at the fault vector *)
  | Exited  (** target entry function returned *)

type t

val create : board:Board.t -> fault_vector:int -> entry:(unit -> unit) -> t
(** [fault_vector] is the flash address the PC parks at when a hardware
    fault unwinds to the engine. [entry] is the target's reset handler;
    it is not started until the first {!run}. *)

val board : t -> Board.t

val pc : t -> int
(** Synthetic program counter: the reset vector before the first run,
    then the address of the last crossed site, or the fault vector. *)

val running : t -> bool
(** [true] while the target can still make progress ([Exited]/[Faulted]
    are terminal until {!reset}). *)

val last_fault : t -> Fault.t option

val set_breakpoint : t -> int -> unit

val remove_breakpoint : t -> int -> unit

val breakpoints : t -> int list

val run : t -> fuel:int -> stop_reason
(** Execute up to [fuel] instrumentation sites. Resuming after a
    [Breakpoint_hit] steps past the breakpointed site first. [run] on a
    terminal engine returns the terminal reason again. The target
    suspends only at the site it stops on; the sites before it are
    crossed in place ({!Target.site}).
    @raise Invalid_argument if [fuel <= 0]. *)

val step_one : t -> stop_reason
(** Single-step: [run ~fuel:1], i.e. advance exactly one site. *)

val reset : t -> unit
(** Abandon the current execution (unwinding the parked continuation)
    and rearm [entry] for a fresh boot. Does not touch the board; callers
    reset the board separately. *)

val sites_executed : t -> int64
(** Total instrumentation sites crossed since creation (all boots). *)
