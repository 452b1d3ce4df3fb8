(** Deterministic in-process fleet: the whole hub — every worker, every
    tenant — in one OS process on one cooperative schedule.

    Determinism argument, layer by layer: each board is deterministic
    given its seed (virtual clock, seeded RNG); the cooperative farm
    interleaves boards by virtual time with fixed tie-breaks; the worker
    interleaves shards the same way; this driver interleaves workers the
    same way again, and delivers protocol traffic from FIFO queues
    drained in worker-id order. No wall clock, no thread, no socket
    enters any decision — the hub's liveness machinery runs on the
    fleet's {e virtual} clock — so two runs with the same tenant configs
    (and the same death script) produce byte-identical digests and
    byte-identical per-tenant telemetry, which CI checks with [cmp].

    Every message still round-trips through {!Protocol.encode}/
    {!Protocol.decode}, so the soak exercises the same bytes the socket
    transport carries.

    Fault drills, all deterministic:
    - [kill] scripts a silent worker death after a payload count: the
      worker stops responding (no EOF), the heartbeat deadline fires on
      the virtual clock, its leases are revoked and reassigned to
      survivors — the exact recovery path the socket transport needs.
    - [halt_after] abandons the drive mid-campaign (simulating a hub
      process kill); with [journal] set, a second {!run} on the same
      journal resumes and reaches the same fleet digest the
      uninterrupted run produces. *)

type tenant_result = {
  tenant : string;
  campaign : int;
  digest : string;  (** deterministic per-tenant campaign digest *)
  executed : int;
  coverage : int;
  crashes : int;  (** tenant-deduplicated *)
}

type outcome = {
  tenants : tenant_result list;  (** submission order, finished only *)
  fleet_digest : string;
  crashes_deduped : int;  (** fleet-wide set size *)
  fleet_crashes : (Eof_core.Crash.t * string list) list;
      (** each distinct bug with the tenants that hit it *)
  transplants : int;  (** cross-shard corpus programs admitted *)
  payloads : int;
  wall_s : float;
  halted : bool;  (** stopped by [halt_after] before completion *)
  reassignments : int;  (** shard leases moved off dead workers *)
  fenced : int;  (** stale-epoch messages dropped *)
  payloads_lost : int;  (** executed work discarded at revocations/resets *)
  recovery_lag : float;
      (** max virtual seconds of shard progress discarded *)
  replayed_frames : int;  (** journal frames replayed at startup *)
}

val run :
  ?obs:Eof_obs.Obs.t ->
  ?corpus_sync:bool ->
  ?journal:string ->
  ?heartbeat_timeout:float ->
  ?kill:int * int ->
  ?halt_after:int ->
  farms:int ->
  Tenant.config list ->
  resolve:(string -> (Worker.target, string) result) ->
  (outcome, string) result
(** Register [farms] workers, submit every tenant not already known
    from a journal replay, then drive the fleet to completion (or to
    [halt_after] total payload steps). [kill (w, n)] silences worker
    [w] after its [n]-th step. [Error] on a rejected submission, on a
    [kill] naming no worker ([w] outside [0 .. farms - 1]), or on a
    genuine stall (every shard's owner dead with no survivor to take
    the lease). *)

val summary : outcome -> string
(** The digest lines plus a fleet headline — what [eof serve --inproc]
    prints, and what the CI soak [cmp]s. Deterministic: [wall_s] and
    the recovery counters are deliberately not included, so a resumed
    run's summary is comparable with an uninterrupted one. *)
