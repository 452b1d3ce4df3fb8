open Eof_os

(** The EOF fuzzing loop.

    One campaign drives one target build over its debug session:
    generate or mutate an API-aware program, deliver it through the
    mailbox, pump the agent between its binding-point breakpoints, drain
    coverage and UART, classify crashes, keep the target alive
    (Algorithm 1), and feed interesting inputs back into the corpus.

    The configuration knobs double as the paper's ablations:
    [feedback:false] is EOF-nf, [dep_aware:false] disables
    resource-dependency-aware generation (ablation A2),
    [stall_watchdog:false] disables the PC-stall watchdog (A1). *)

(** How the campaign returns the target to a known-good state. *)
type reset_policy =
  | Ladder
      (** the original escalation ladder only; the reflash rung rewrites
          every partition from the golden image (no snapshot is armed) *)
  | Fresh_per_program
      (** arm a pristine copy-on-write snapshot right after install and
          rewind to it before {e every} payload: no target-side state
          (heap, kernel tables, leaked objects) survives between
          programs. Host-side feedback and corpus persist. The ladder's
          reflash rung restores the same snapshot, O(dirty pages)
          instead of O(image size). *)

val reset_policy_name : reset_policy -> string

val reset_policy_of_name : string -> (reset_policy, string) result
(** ["ladder"], ["fresh-per-program"] (or ["fresh"]), case-insensitive;
    anything else is an [Error] naming [ladder|fresh-per-program]. *)

type config = {
  seed : int64;
  iterations : int;  (** payload budget *)
  feedback : bool;
  dep_aware : bool;
  stall_watchdog : bool;
  max_prog_len : int;
  snapshot_every : int;  (** iterations between coverage samples *)
  api_filter : string list option;
      (** restrict generation to these calls (the Table-4 setup, where
          only the HTTP/JSON surface is exercised) *)
  irq_injection : bool;
      (** inject random GPIO edges alongside test cases, driving the
          interrupt paths the paper leaves to future work (default off,
          matching EOF's published scope) *)
  initial_seeds : Prog.t list;
      (** corpus programs to replay before fuzzing starts (resuming a
          saved corpus) *)
  batch_link : bool;
      (** fuse every continue with the coverage/cmp/UART drain and the
          staged program delivery (default true), on either backend:
          one [vBatch] exchange per stop on the link, cutting round
          trips from six-plus to one, and direct memory reads natively.
          [false] selects the one-read-per-request path on both
          backends. No baseline or experiment uses it: it is the
          independent reference the fused drain is tested against
          (test_core's "batched equals unbatched") and the "before"
          side of the bench's debug-link comparison. Coverage and crash
          outcomes are identical either way; only link traffic
          differs. *)
  fault_rate : float;
      (** probability that any one debug-link exchange starts a fault
          burst (drops, truncations, NAK storms, timeouts, post-reset
          garbage). 0 (the default) attaches no injector at all — the
          link code path is bit-identical to a build without fault
          injection. Only used when {!init} creates the machine itself;
          a supplied machine keeps whatever injector it was built
          with. *)
  fault_seed : int64;
      (** seed of the injector's private RNG; the whole fault schedule —
          which exchanges fault and how — is a deterministic function of
          this seed and the exchange sequence *)
  backend : Eof_agent.Machine.backend;
      (** execution backend (default [Link]). [Link] drives the target
          over the simulated debug probe; [Native] transplants agent +
          personality in-process — no RSP framing, no transport,
          coverage drained by direct memory access, virtual time charged
          from board CPU cost only. Outcomes and digests are identical
          across backends on the same seed (enforced by {!Diff});
          setting [fault_rate > 0] with [Native] is a [Config] error,
          since link faults cannot exist without a link. Only used when
          {!init} creates the machine; a supplied machine's own backend
          wins. *)
  reset_policy : reset_policy;
      (** how the target gets back to pristine state (default
          [Ladder]). [Fresh_per_program] captures the pristine image
          during {!init}, right after install — before the target ever
          runs. *)
  schedule : Corpus.schedule;
      (** seed scheduling (default [Uniform], which is RNG-identical to
          the pre-scheduler corpus: one pick, one mutation). [Energy]
          grants power-schedule mutation budgets judged against the
          campaign target's rare-edge frontier. *)
}

val default_config : config
(** seed 1, 400 iterations, all features on, programs up to 12 calls. *)

type sample = { iteration : int; virtual_s : float; coverage : int }

type outcome = {
  os : string;
  coverage : int;  (** distinct edges at the end *)
  series : sample list;  (** chronological coverage samples *)
  crashes : Crash.t list;  (** deduplicated, in discovery order *)
  crash_events : int;  (** total crash occurrences before dedup *)
  executed_programs : int;
  resets : int;
  reflashes : int;
  stalls : int;
  timeouts : int;
  corpus_size : int;
  virtual_s : float;
  iterations_done : int;
  coverage_bitmap : Eof_util.Bitset.t;
      (** final edge bitmap (edge index = site index * variants + variant) *)
  final_corpus : Prog.t list;  (** seeds at campaign end, for persistence *)
  abort_cause : Eof_util.Eof_error.t option;
      (** why the campaign stopped early, when it did: the ladder's
          [Board_dead] verdict or the fifth consecutive unrecoverable
          failure. [None] means the iteration budget was reached. *)
}

val filter_spec : Eof_spec.Ast.t -> string list -> Eof_spec.Ast.t
(** Restrict a spec to an allowlist of call names, dropping resource
    kinds that lose all producers (shared with the baseline drivers). *)

val run :
  ?machine:Eof_agent.Machine.t -> ?obs:Eof_obs.Obs.t -> config -> Osbuild.t ->
  (outcome, Eof_util.Eof_error.t) result
(** Runs the loop to the iteration budget (or aborts early after
    repeated unrecoverable link failures or a dead board, returning
    what it has — see [outcome.abort_cause]).
    Equivalent to {!init} followed by {!step} until {!finished} and a
    final {!finish} — it is exactly that.

    [obs] is the telemetry bus: the campaign emits per-payload events
    and spans ([Payload], [Corpus_admit], [Crash_found], plus whatever
    the layers below emit) and bumps [campaign.*] counters. Purely a
    reporting plane — outcomes are identical with or without it. *)

(** {2 Reentrant single-board stepping}

    The loop above, opened up for external schedulers (the board farm):
    [init] wires one board and returns its explicit campaign state,
    [step] runs exactly one iteration (one payload attempt, including
    recovery), and [finish] seals the outcome. An exception from any
    layer (a harness bug, or an observer sink that raises) propagates
    out of [step] and {!run} unchanged: a broken harness never looks
    like a dead board. *)

type state
(** All per-board campaign state: generator, corpus, coverage map,
    crash table, pending link data, failure counters. One board each. *)

val machine_of_config :
  ?obs:Eof_obs.Obs.t -> config -> Osbuild.t ->
  (Eof_agent.Machine.t, Eof_util.Eof_error.t) result
(** The machine {!init} builds when none is supplied: a native one for
    [backend = Native], otherwise a link whose transport carries this
    config's fault schedule ([fault_rate], [fault_seed]) when
    [fault_rate > 0]. It does not reject a native backend with faults;
    {!init} does. *)

val init :
  ?machine:Eof_agent.Machine.t -> ?obs:Eof_obs.Obs.t -> config -> Osbuild.t ->
  (state, Eof_util.Eof_error.t) result
(** Synthesize + validate the spec, wire the machine ({!machine_of_config}
    when not supplied), arm the binding-point breakpoints, replay
    [initial_seeds]. Fails on spec or link-bringup errors, and with a
    [Config] error when [fault_rate > 0] on a native machine: faults are
    link-only. When [obs] is given its clock is bound to this board's
    virtual time. *)

val step : state -> unit
(** One campaign iteration: advance to [executor_main], pick/mutate a
    program, deliver it, pump to completion, classify, feed back. A
    no-op once {!finished}. *)

val finished : state -> bool
(** Budget exhausted, five unrecoverable link failures in a row, or a
    board the escalation ladder gave up for dead. *)

val finish : state -> outcome
(** Take the final coverage sample and seal the outcome. Call once. *)

(** Read-only observers used by the farm's epoch synchronisation. *)

val feedback : state -> Feedback.t

val corpus : state -> Corpus.t

val crashes_so_far : state -> Crash.t list
(** Deduplicated crashes in discovery order, as of now. *)

val crash_events_so_far : state -> int

val executed_programs_so_far : state -> int

val iteration : state -> int

val is_dead : state -> bool
(** The recovery escalation ladder was exhausted on this board: retry,
    resync, reset and reflash all failed in a row. The board takes no
    further part in the campaign. *)

val virtual_s : state -> float
(** The board's virtual clock — CPU time plus debug-link latency on
    the link backend, CPU time alone on the native backend. *)

val cpu_s : state -> float
(** The board's CPU time alone. Backend-invariant for a given payload
    schedule, so the farm's min-CPU scheduler keys on it: board
    interleaving (and therefore corpus cross-pollination order) is then
    identical whether the shards run over the link or natively, which
    is what lets the differential farm oracle demand digest equality. *)
