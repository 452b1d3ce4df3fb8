open Eof_os

(** GDBFuzz (Eisele et al., ISSTA 2023): fuzzing embedded applications
    through the debug interface, with coverage feedback approximated by
    relocating a handful of hardware breakpoints across basic blocks.
    Application-level only — raw byte buffers into one entry function,
    no OS API awareness. *)

val run :
  seed:int64 -> iterations:int -> entry_api:string -> sample_modules:string list ->
  Osbuild.t -> (Eof_core.Campaign.outcome, Eof_util.Eof_error.t) result
(** Uses 6 hardware breakpoints, the budget of a Cortex-M FPB unit. *)
