open Eof_hw
open Eof_exec

(** The on-host debug server (the OpenOCD role).

    Owns the probe side of the link: it decodes RSP byte streams from the
    host session, executes commands against the board and execution
    engine, and encodes replies. Continue/step run the engine in bounded
    quanta; a continue that exhausts its quantum reports SIGINT with the
    current PC — exactly what a debugger sees when it interrupts a target
    that is still running, and the observation the PC-stall watchdog is
    built on. *)

type t

val create : ?continue_quantum:int -> board:Board.t -> engine:Engine.t -> unit -> t
(** [continue_quantum] is the site budget of one [c] packet (default
    200_000). *)

val board : t -> Board.t

val feed : t -> string -> string
(** Process raw bytes from the host; return the raw bytes to send back
    (acks plus reply frames). [vBatch] packets execute their
    sub-operations in order server-side and return one combined reply
    frame; [X] packets are binary-escaped memory writes. Both are
    advertised in the [qSupported] reply ([vBatch+;X+]). *)

(** Monitor ([qRcmd]) commands understood, all returning hex-encoded
    text per OpenOCD convention:
    - ["reset"]: power-cycle the board and rearm the engine
    - ["uart"]: drain and return pending UART output
    - ["fault"]: the last hardware-fault diagnosis, or empty
    - ["bootok"]: "1" if the bootloader integrity check passes
    - ["cycles"]: the board clock's cycle counter in decimal
    - ["gpio <pin> <0|1>"]: inject a pin-level change (peripheral event
      injection for interrupt-path fuzzing) *)
