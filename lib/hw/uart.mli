(** UART transmit peripheral.

    Target code writes bytes into a bounded TX FIFO; the host side (the
    fuzzer's log monitor) drains it. If nothing drains the FIFO — e.g.
    after a fault freezes the host connection — old bytes are overwritten,
    modelling the paper's observation that "UART logs may vanish after a
    fault".

    The FIFO is a byte ring: writes and drains are at most two blits,
    and a reset is O(1). *)

type t

val create : ?fifo_bytes:int -> unit -> t
(** Default FIFO is 8 KiB. @raise Invalid_argument if [fifo_bytes <= 0]. *)

val write_string : t -> string -> unit

val drain : t -> string
(** All pending bytes, oldest first; empties the FIFO. *)

val reset : t -> unit
(** Discard every pending byte. *)
