open Eof_os

(** The Tardis baseline: Syzkaller-derived, emulation-based embedded OS
    fuzzing (Shen et al., TCAD 2022).

    Faithful to its published mechanism and limits:
    - runs the target under an emulator (a QEMU-style board profile),
      so it is confined to targets with peripheral-accurate emulation;
    - exchanges test cases and coverage through shared memory — this
      driver touches board RAM and the engine directly, VM-introspection
      style, with no debug-probe protocol in between;
    - generates from hand-written API specifications that cover the core
      subsystems only ({!unsupported_calls} per OS) — no LLM-derived
      pseudo-syscalls or driver/diagnostic surfaces;
    - is coverage-guided, but its only bug/liveness signal is the
      timeout mechanism: a dead or wedged VM is noticed on the next
      poll, attributed to the last call started, with no exception or
      log monitors. *)

val unsupported_calls : string -> string list
(** Calls absent from Tardis's hand-written spec for the named OS. *)

val build_for : Osbuild.spec -> Osbuild.t
(** The target built for the QEMU board (instrumented, as Tardis's KCOV
    equivalent requires). *)

val run :
  seed:int64 -> iterations:int -> Osbuild.t ->
  (Eof_core.Campaign.outcome, Eof_util.Eof_error.t) result
