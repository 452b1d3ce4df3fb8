open Eof_hw
open Eof_exec

(** The on-host debug server (the OpenOCD role).

    Owns the probe side of the link: it decodes RSP byte streams from the
    host session, executes commands against the board and execution
    engine, and encodes replies. Continue/step run the engine in bounded
    quanta (200_000 sites per continue, a constant of every probe); a
    continue that exhausts its quantum reports SIGINT with the
    current PC — exactly what a debugger sees when it interrupts a target
    that is still running, and the observation the PC-stall watchdog is
    built on. *)

type t

val create : board:Board.t -> engine:Engine.t -> unit -> t
(** A probe on [board]. One [c] packet runs the engine for a continue
    quantum of 200_000 sites, the same on every probe and on both
    backends. *)

val board : t -> Board.t

(** {2 Board-side operations}

    Everything the probe does to the board and engine, as typed calls.
    The RSP dispatcher ({!feed}) turns their results into replies; the
    native backend ({!Eof_agent.Machine.create_native}) calls them
    directly, so both backends share one implementation of stop
    classification, reset, the UART/fault monitors, GPIO injection,
    flash programming and the snapshot slot. None of them charges link
    time; each does exactly what the matching packet does. *)

type stop =
  | Stopped_breakpoint of int  (** PC, parked at a breakpointed site *)
  | Stopped_quantum of int  (** PC; the continue quantum expired, target live *)
  | Stopped_fault of int  (** PC at the fault vector *)
  | Target_exited

val stop_kind : stop -> string
(** ["breakpoint"], ["quantum"], ["fault"] or ["exited"]: the [kind] of
    a [Stop] event on either backend. *)

val stop_pc : stop -> int
(** The stop's PC; -1 for an exited target. *)

val resume : t -> stop
(** Run the engine for one continue quantum and classify where it
    stopped (the [c] packet, and the [vBatch] continue op). *)

val reset : t -> unit
(** Power-cycle the board (RAM, UART and GPIO cleared; flash and clock
    persist) and re-arm the engine (the [reset] monitor command). *)

val drain_uart : t -> string
(** Take the pending UART output (the [uart] monitor command). *)

val fault_text : t -> string
(** The engine's last hardware-fault diagnosis, empty when none is
    latched (the [fault] monitor command). *)

val set_gpio : t -> pin:int -> level:bool -> (unit, string) result
(** Drive one GPIO pin (the [gpio] monitor command). *)

val flash_erase : t -> addr:int -> len:int -> (unit, Fault.t) result
(** Erase the sectors covering the range ([vFlashErase]). *)

val flash_program : t -> addr:int -> string -> (unit, Fault.t) result
(** Program erased flash ([vFlashWrite]). *)

val snapshot_save : t -> int
(** Capture a copy-on-write snapshot of RAM and flash into the probe's
    single slot, replacing any earlier one; returns the device pages it
    covers ([QSnapshot:save]). *)

val snapshot_restore : t -> int option
(** Copy back the pages written since the save (or the previous
    restore); returns the pages copied, or [None] when the slot is
    empty ([QSnapshot:restore]). *)

val feed : t -> string -> string
(** Process raw bytes from the host; return the raw bytes to send back
    (acks plus reply frames). [vBatch] packets execute their
    sub-operations in order server-side and return one combined reply
    frame; the [qSupported] reply advertises them ([vBatch+]). *)

(** Monitor ([qRcmd]) commands understood, all returning hex-encoded
    text per OpenOCD convention:
    - ["reset"]: power-cycle the board and rearm the engine
    - ["uart"]: drain and return pending UART output
    - ["fault"]: the last hardware-fault diagnosis, or empty
    - ["cycles"]: the board clock's cycle counter in decimal
    - ["gpio <pin> <0|1>"]: inject a pin-level change (peripheral event
      injection for interrupt-path fuzzing) *)
