open Eof_os

(** GUSTAVE (Duverger & Gantet): AFL on top of a customized QEMU board,
    used on POK. The genome is a raw byte buffer that a thin harness
    decodes into a syscall sequence with no knowledge of argument
    constraints or resource kinds, so most decoded calls bounce off
    validation; coverage comes from QEMU TCG (read out of guest RAM
    here), and crashes are whole-VM faults. *)

val build_for : Osbuild.spec -> Osbuild.t
(** The target on the customized QEMU board profile. *)

val decode_genome : table:Eof_rtos.Api.table -> string -> Eof_agent.Wire.program
(** Exposed for tests: how the harness interprets genome bytes — api
    index modulo the table size, 4 raw bytes per int argument, a
    length-prefixed slice per string, a modulo-reference per resource. *)

val run :
  seed:int64 -> iterations:int -> Osbuild.t ->
  (Eof_core.Campaign.outcome, Eof_util.Eof_error.t) result
