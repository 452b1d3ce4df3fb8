(** Virtual time.

    The simulation measures time in CPU cycles; campaigns convert cycles
    to virtual seconds with the board's clock frequency. Every site the
    target crosses charges cycles, so instrumentation overhead shows up
    as reduced payload throughput exactly as in the paper's §5.5.2. *)

type t

val create : mhz:int -> t

val mhz : t -> int

val cycles : t -> int64

val advance : t -> int -> unit
(** Charge a non-negative number of cycles. *)

val now_us : t -> float
(** Microseconds of virtual time elapsed since reset. *)

val now_s : t -> float

val reset : t -> unit
