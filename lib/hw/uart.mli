(** UART transmit peripheral.

    Target code writes bytes into a bounded TX FIFO; the host side (the
    fuzzer's log monitor) drains it. If nothing drains the FIFO — e.g.
    after a fault freezes the host connection — old bytes are overwritten,
    modelling the paper's observation that "UART logs may vanish after a
    fault".

    The FIFO is an 8 KiB byte ring: writes and drains are at most two
    blits, and a reset is O(1). *)

type t

val create : unit -> t
(** An empty 8192-byte FIFO. *)

val write_string : t -> string -> unit

val drain : t -> string
(** All pending bytes, oldest first; empties the FIFO. *)

val reset : t -> unit
(** Discard every pending byte. *)
