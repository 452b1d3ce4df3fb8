open Eof_os

(** Board-farm orchestration: one fuzzing campaign sharded across N
    independent boards.

    Each shard is a full single-board campaign built through
    {!Campaign.init} — board, flashed image, OpenOCD-style probe,
    transport, debug session, agent and campaign state — exactly as N
    physical dev boards on N probes share nothing. What the shards {e do} share is host-side: a global
    coverage map, one cross-board corpus, and a crash-deduplication
    table keyed by crash signature. Sharing is {e epoch-based}: every
    [sync_every] payloads the farm merges shard-local discoveries into
    the global structures and pollinates the shared corpus back into
    the shards — amortizing synchronisation the way the vBatch link
    amortizes round trips, instead of contending on every payload.

    One deterministic scheduler interleaves single-board
    {!Campaign.step}s, always advancing the board whose target CPU clock
    is furthest behind (ties to the lowest index). The key is CPU time,
    not full virtual time, so the interleaving is identical on the link
    and native execution backends. Same config, same result, every run;
    and with [boards = 1] the schedule degenerates to the plain loop, so
    the outcome is bit-identical to {!Campaign.run}. Parallelism is
    modelled, not executed: the farm clock is the slowest board's
    virtual time, as for N physical boards running side by side. *)

type config = {
  boards : int;  (** shard count; 1 reduces to a plain campaign *)
  sync_every : int;  (** farm-wide payloads between epoch merges *)
  base : Campaign.config;
      (** the campaign being sharded. [base.iterations] is the {e total}
          payload budget, split across boards round-robin; board 0 keeps
          [base.seed] (the [boards = 1] equivalence), the others derive
          independent streams from it. *)
}

val default_config : config
(** 1 board, sync every 25 payloads, on {!Campaign.default_config}. *)

val derive_seed : mix:int64 -> int64 -> int -> int64
(** [derive_seed ~mix base k]: [base] for [k = 0], an independent
    derived stream for the rest. [mix] names the seed family (board
    seeds, probe fault seeds, hub shard seeds): each family uses its own
    multiplier, so streams of different families never collide. *)

val shard_iterations : total:int -> shards:int -> int -> int
(** Round-robin budget split: shard [k]'s share of [total], the first
    [total mod shards] shards carrying the remainder. The same split
    applies to boards in a farm and to farms in a hub campaign. *)

type sync_sample = {
  executed : int;  (** payloads merged into the global map so far *)
  virtual_s : float;  (** farm clock: max synced board virtual time *)
  coverage : int;  (** global distinct edges after the merge *)
}

type outcome = {
  boards : int;
  coverage : int;  (** distinct edges in the global map *)
  coverage_bitmap : Eof_util.Bitset.t;
  crashes : Crash.t list;
      (** cross-board deduplicated by {!Crash.dedup_key}, in global
          discovery (sync) order; first-seeing board's record kept *)
  crash_events : int;  (** total occurrences across all boards *)
  executed_programs : int;  (** sum over boards *)
  iterations_done : int;  (** sum over boards *)
  corpus_size : int;
  final_corpus : Prog.t list;
      (** the merged global corpus (shard order, duplicates dropped) *)
  virtual_s : float;
      (** campaign duration on the farm clock: the slowest board's
          virtual time — boards run in parallel, physically *)
  wall_s : float;  (** host wall-clock *)
  syncs : int;  (** epoch merges performed *)
  sync_series : sync_sample list;  (** chronological, for time-to-coverage *)
  per_board : Campaign.outcome array;  (** each shard's own outcome *)
  dead_boards : int;
      (** boards whose recovery escalation ladder was exhausted: they
          stopped contributing, but the farm ran on with the survivors
          (their partial results are still merged) *)
}

type t
(** An in-progress farm: every shard built, linked and initialised, the
    shared structures allocated, no payload executed yet. The reentrant
    surface ({!init} / {!step} / {!finished} / {!finish}) is what lets an
    external scheduler — the hub's in-process fleet driver — interleave a
    farm with other farms and with protocol work, exactly as
    {!Campaign.init}/{!Campaign.step} let the farm interleave boards. *)

val init :
  ?obs:Eof_obs.Obs.t ->
  ?inject_for:(int -> Eof_debug.Inject.config option) ->
  config ->
  (int -> Osbuild.t) ->
  (t, Eof_util.Eof_error.t) result
(** Build and initialise every shard (see {!run} for the semantics of
    the arguments) without executing anything. Board [i] runs
    {!Campaign.init} on [base] with its own seed, budget share and
    fault-injector seed; every board's machine is brought up (in board
    order) before the first campaign arms its breakpoints. *)

val step : t -> unit
(** Advance the scheduler by one campaign step: pick the
    board whose CPU clock is furthest behind (ties to the lowest index)
    and step it, merging an epoch every [sync_every] executed payloads.
    No-op when every board is finished. *)

val finished : t -> bool

val next_cpu_s : t -> float option
(** The CPU clock of the board {!step} would advance next — the farm's
    scheduling key when an external driver interleaves several farms.
    [None] when the farm is finished. *)

val finish : t -> outcome
(** Run the closing epoch merge and assemble the outcome. Idempotent: the outcome is computed once and
    cached. *)

(** {2 Mid-run observers}

    Safe between {!step}s; they read the shared structures
    as of the last epoch merge. The hub worker uses these to ship
    discoveries to the fleet between epochs. *)

val coverage : t -> int

val coverage_bitmap : t -> Eof_util.Bitset.t
(** A snapshot copy (the live map keeps growing). *)

val exchange_corpus : t -> Corpus.t
(** The live shared corpus the shards pollinate through. *)

val crashes_so_far : t -> Crash.t list
(** Globally deduplicated, in discovery order. *)

val executed_so_far : t -> int

val virtual_now : t -> float
(** Farm-clock high-water mark at the last merge. *)

val syncs_so_far : t -> int

val adopt : t -> Prog.t list -> int
(** Graft externally discovered seeds (another farm's corpus, shipped
    through the hub) into the exchange corpus; they reach every shard at
    its next epoch pull. Returns how many were new (content-hash dedup
    applies). *)

val pause : t -> unit
(** Freeze a farm whose shard lease was revoked: run one
    off-cycle epoch merge (so the mid-run observers reflect everything
    executed) and stop the scheduler — {!step} becomes a no-op and
    {!next_cpu_s} returns [None]. Terminal for this instance; the hub
    rebuilds the shard elsewhere. Idempotent. *)

val paused : t -> bool

val run :
  ?obs:Eof_obs.Obs.t ->
  ?inject_for:(int -> Eof_debug.Inject.config option) ->
  config ->
  (int -> Osbuild.t) ->
  (outcome, Eof_util.Eof_error.t) result
(** [run config mk_build] builds one target per board via [mk_build i]
    (factories are called sequentially and need not be thread-safe),
    shards the campaign and runs it to the total budget. Fails if any
    board fails to build, bring up its link or initialise its campaign
    (the error names the board: a native backend with
    [base.fault_rate > 0] is [Config] error "board 0: ..."), or if the
    boards disagree on coverage-map capacity (they must be builds of
    the same target).

    Each board's campaign config carries its own fault-injector seed,
    derived from [base.fault_seed] (board 0 keeps it), so with
    [base.fault_rate > 0] every probe glitches independently. [inject_for]
    is a test hook: when [inject_for i] is [Some cfg], board [i] gets a
    link machine whose transport carries [cfg] instead of the machine
    its config would build. A board that dies mid-campaign (ladder
    exhausted) is simply skipped by the scheduler; the farm finishes on
    the survivors and reports it in [dead_boards].

    With [obs], each board emits on a {!Eof_obs.Obs.for_board}-derived
    handle of the same bus (events carry the board index, timestamped by
    that board's virtual clock) and the farm itself emits an
    [Epoch_sync] event per merge, timestamped by the farm clock. The
    full event stream is deterministic. *)
