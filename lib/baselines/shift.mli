open Eof_os

(** SHiFT (Mera et al., USENIX Security 2024): semi-hosted fuzzing of
    embedded applications with true sanitizer/coverage feedback, but
    application-level random-buffer inputs and FreeRTOS-only support. *)

val run :
  seed:int64 -> iterations:int -> entry_api:string ->
  Osbuild.t -> (Eof_core.Campaign.outcome, Eof_util.Eof_error.t) result
(** Fails on targets other than FreeRTOS, mirroring the tool's support
    matrix. [iterations] is a wall-clock-equivalent budget: semihosting
    trap overhead halves the payload count actually executed. *)
