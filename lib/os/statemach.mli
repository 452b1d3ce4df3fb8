open Eof_rtos

(** Staged driver state machines.

    Every real embedded OS hides sequences behind magic configuration
    values: init -> configure -> calibrate -> start chains where each
    step checks a mode word against what the hardware expects. This
    module instantiates such a protocol for a personality: [<name>_open]
    produces a device handle at stage 0, and [<name>_step dev code]
    advances one stage iff [code] matches that stage's expected word.

    Each comparison goes through the SanCov [trace_cmp] hook, so a
    coverage-guided fuzzer observes operand-distance buckets and can
    hill-climb toward the expected word — the concrete payoff of the
    paper's comparison-tracing instrumentation, and precisely what a
    generation-only fuzzer (EOF-nf) cannot do. *)

val site_count : int
(** Sites an instrumentation block for one instance must provide. *)

val entries :
  Osbuild.ctx -> instr:Instr.t -> prefix:string -> resource:string -> salt:int ->
  Api.entry list
(** Two API entries: [<prefix>_open() -> resource] and
    [<prefix>_step(dev resource, code int[0:255])]. Completing the final
    stage logs a completion line (no bug — just deep coverage). *)
