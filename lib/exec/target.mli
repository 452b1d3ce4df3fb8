(** Effects performed by target-side code.

    Target code — the execution agent, the OS personality, the app
    modules — is ordinary OCaml run under the {!Engine} handler. Each
    {!site} call marks the crossing of an instrumentation site and is the
    engine's instruction boundary: the synthetic program counter moves
    there, breakpoints are checked, cycles are charged. Code that
    crosses no site is invisible to the debugger, exactly like
    straight-line machine code between instrumented branches. *)

val site : int -> unit
(** Cross the instrumentation site at the given flash address: move the
    program counter there, count the site, charge the engine's per-site
    cycles and take one unit of the quantum's fuel. While an {!Engine.run}
    quantum is live, a site with no breakpoint that leaves fuel for a
    later site is crossed in place, since nothing outside can see it.
    Otherwise — a breakpoint, the quantum's last site, or no live quantum
    (reset unwinding, {!run_silent}, no handler) — it performs [Site] and
    the handler decides, suspending the target where the debugger can
    see it. *)

val cycles : int -> unit
(** Charge additional CPU cycles (models expensive straight-line code or
    instrumentation cost). Acts on the board clock directly while a
    quantum is live, else performs [Cycles]. *)

val spin : int -> cycles_per:int -> 'a
(** [spin addr ~cycles_per] never returns: each turn crosses the site at
    [addr] and then charges [cycles_per] cycles, exactly as the loop
    [let rec go () = site addr; cycles cycles_per; go ()] does. While a
    quantum is live with fuel left for more than one site and no
    breakpoint on [addr], the turns before the quantum's last site are
    done in one step — the PC ends at [addr], the sites are counted and
    the clock is charged for all of them — since nothing outside can see
    them. The last turn crosses its site as {!site} does, so the target
    suspends exactly where the loop would. With no live quantum every
    turn performs [Site].
    @raise Invalid_argument if [cycles_per < 0]. *)

val uart_tx : string -> unit
(** Transmit bytes on the board's UART. *)

val current_cycles : unit -> int64
(** The board clock's cycle count, visible to target code (models a
    cycle-counter register such as ARM's DWT->CYCCNT). Reads the board
    clock directly while a quantum is live, else performs [Read_cycles]. *)

val run_silent : (unit -> 'a) -> 'a
(** Run target code on the host with all target effects swallowed:
    sites and cycles are dropped, UART output is discarded, the cycle
    counter reads zero. For host-side uses of target-flavoured code —
    extracting API signatures at build time, unit tests. No quantum is
    live inside [f], even when [run_silent] is called from one. *)

(**/**)

(* Effect declarations and the live-quantum cell, exposed for the
   engine only. *)
type _ Effect.t +=
  | Site : int -> unit Effect.t
  | Cycles : int -> unit Effect.t
  | Uart_tx : string -> unit Effect.t
  | Read_cycles : int64 Effect.t

(* The part of an engine that an in-place site crossing updates. *)
type quantum = {
  clock : Eof_hw.Clock.t;
  breakpoints : (int, unit) Hashtbl.t;
  site_cost : int;  (* cycles charged per crossed site *)
  mutable pc : int;
  mutable sites : int;  (* sites crossed since creation *)
  mutable fuel : int;  (* sites this quantum may still cross *)
}

val with_live : quantum option -> (unit -> 'a) -> 'a
(* [with_live q f] makes [q] the live quantum for the extent of [f] and
   restores the previous one however [f] exits. *)
