(** GPIO bank with edge interrupts — the "lightweight peripheral model"
    the paper's future-work section calls for to drive interrupt paths.

    The host injects pin-level changes (through a debug-probe monitor
    command); if the pin is configured for the matching edge, an
    interrupt latches, and the target's kernel tick drains pending
    interrupts into its ISR dispatch. *)

type edge = Rising | Falling | Both

type t

val create : unit -> t
(** All pins low, no interrupts configured. *)

val configure_irq : t -> pin:int -> edge -> (unit, string) result
(** Target-side: arm edge detection on a pin. *)

val disable_irq : t -> pin:int -> unit

val set_level : t -> pin:int -> level:bool -> (unit, string) result
(** Host-side injection. Latches a pending interrupt when the transition
    matches the pin's armed edge. *)

val drain_pending : t -> int list
(** Pending interrupt pins (ascending), clearing them — what the ISR
    dispatch consumes once per kernel tick. *)

val reset : t -> unit
(** Power-on state. *)
