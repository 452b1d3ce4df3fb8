(** The campaign hub: a transport-agnostic state machine coordinating a
    fleet of remote worker endpoints on behalf of multiple tenants.

    The hub owns no sockets and no clock. It consumes one decoded
    {!Protocol.t} message at a time — tagged with who sent it and what
    time it is — and returns the messages to send in response; the
    in-process driver ({!Inproc}) and the socket server ({!Socket}) are
    thin transports around the same machine, which is what makes the
    deterministic CI soak argue about the real orchestration logic.

    Responsibilities:
    - register worker endpoints ({!hello}) and track their liveness
      against a heartbeat deadline ({!tick});
    - admit per-tenant submissions, shard them across workers
      ({!Shard.plan}), leasing each shard to the least-loaded worker;
    - revoke the leases of a dead worker, reassign them to survivors
      (replaying the hub-side corpus as a bootstrap), and {e fence}
      traffic carrying a stale lease epoch so a zombie worker cannot
      corrupt accounting;
    - merge pushed corpus programs into a hub-side per-tenant
      {!Eof_core.Corpus} (decoding through the tenant's own personality,
      so foreign programs are rejected at the boundary) and transplant
      genuinely new programs to sibling shards;
    - deduplicate crashes fleet-wide by {!Eof_core.Crash.dedup_key} —
      one entry per distinct bug across all tenants and farms — while
      keeping per-tenant attribution and per-tenant crash lists;
    - journal every state-mutating message to an append-only file
      ({!Journal}), so a restarted hub replays itself back to
      where it died and resumes. Live and journaled farm frames go
      through one apply path: replay skips only the fence (and tracks
      lease epochs as a high-water mark), so it cannot rebuild a state
      the live hub never held;
    - stream per-tenant telemetry: every hub event is emitted on an
      {!Eof_obs.Obs.for_tenant} handle clocked by that campaign's
      virtual time;
    - compute deterministic per-tenant campaign digests and the
      fleet-wide {!Eof_core.Report.fleet_digest}.

    {b Time.} Every liveness-relevant entry point takes [~now], in
    whatever clock the transport lives on — virtual seconds under
    {!Inproc} (deterministic), wall seconds under {!Socket}. The hub
    only ever compares [now] against recorded [now]s. *)

type action =
  | To_client of int * Protocol.t  (** send to client [id] *)
  | To_worker of int * Protocol.t  (** send to worker [id] *)

type t

val create :
  ?obs:Eof_obs.Obs.t ->
  ?corpus_sync:bool ->
  ?journal:string ->
  ?heartbeat_timeout:float ->
  resolve:(string -> (Worker.target, string) result) ->
  unit ->
  (t, string) result
(** [resolve] maps a submitted OS name to its personality (the hub
    only reads its [spec] and [table], to rebind wire-encoded
    programs).
    [corpus_sync] (default true) controls cross-shard seed
    transplanting — the off switch exists to measure its overhead.
    [heartbeat_timeout] (default 30 seconds) is the liveness deadline:
    a worker holding at least one active lease that has not been heard
    from for longer is declared dead at the next {!tick}.

    [journal] names an append-only file of state-mutating protocol
    frames. If it already exists it is replayed first: completed
    campaigns are restored exactly (same digest); campaigns the old
    process left unfinished are reset to a fresh start — their
    deterministic re-run reaches the digest the uninterrupted run would
    have, provided every campaign they exchanged seeds with was also
    unfinished at the kill. [Error] if the journal cannot be read or
    opened (including one written by another protocol version), or if
    [heartbeat_timeout] is not positive. *)

val close : t -> unit
(** Close the journal (if any). The hub remains usable, un-journaled. *)

(** {2 Worker lifecycle} *)

val hello : t -> now:float -> name:string -> (int * action list, string) result
(** Register a worker endpoint. Returns its hub-assigned worker id and
    the replies (a [Worker_welcome] followed by any shard leases the
    newcomer picks up). [Error] if the name is invalid. *)

val worker_lost : t -> now:float -> worker:int -> action list
(** Declare a worker dead (transport saw EOF, or a deadline fired):
    every active lease it holds is revoked — epoch bumped, best-effort
    [Shard_revoke] sent, the work it had reported discarded — and the
    shards are reassigned to surviving workers (with a bootstrap
    [Corpus_pull] of the hub-side corpus). Idempotent. *)

val handle_worker : t -> now:float -> worker:int -> Protocol.t -> action list
(** Feed one message from a worker, refreshing its liveness. Shard
    traffic ([Corpus_push] / [Crash_report] / [Heartbeat] /
    [Shard_done]) is fenced: unless it names the current lease epoch
    and comes from the current lease owner it is dropped and counted
    ({!fenced}), never raised on. [Heartbeat] and [Worker_ping] earn a
    [Heartbeat_ack]. *)

val tick : t -> now:float -> action list
(** Liveness sweep: declare workers past the heartbeat deadline dead
    (only workers holding at least one active lease are subject), and
    retry assignment of any leases still pending. Transports call this
    periodically on their own clock. *)

val handle_client : t -> client:int -> Protocol.t -> action list
(** Feed one message from client [client]. Unexpected kinds get a
    [Reject] rather than an exception: clients are untrusted. *)

(** {2 Read side} *)

val all_done : t -> bool
(** At least one campaign submitted and every campaign finished. *)

val status : t -> Protocol.status_row list

val tenants : t -> string list
(** Tenant names, submission order. *)

val tenant_digests : t -> (string * string) list
(** [(tenant, digest)] for every finished campaign, submission order. *)

val fleet_digest : t -> string

val crashes_deduped : t -> int
(** Size of the fleet-wide crash set. *)

val fleet_crashes : t -> (Eof_core.Crash.t * string list) list
(** The fleet-wide deduplicated crashes in discovery order, each with
    the tenants that hit it (attribution order preserved). *)

val heartbeat_timeout : t -> float

val reassignments : t -> int
(** Shard leases moved from a dead worker to a survivor. *)

val fenced : t -> int
(** Messages dropped for naming a stale lease (zombie traffic). *)

val payloads_lost : t -> int
(** Executed payloads discarded with revoked leases and journal resets
    — the re-execution cost of recovery. *)

val recovery_lag : t -> float
(** High-water mark of virtual seconds of shard progress discarded at a
    revocation or reset. *)

val replayed_frames : t -> int
(** Journal frames replayed at {!create}. *)
