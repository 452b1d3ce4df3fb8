(** Campaign sharding: how the hub splits one tenant submission across
    farms.

    The same recursive structure the farm applies to boards applies one
    level up to farms: the total payload budget splits round-robin,
    shard 0 keeps the tenant's seed (so a one-farm campaign degenerates
    to the plain farm run) and the other shards derive independent
    seed streams. *)

type assignment = {
  campaign : int;  (** hub-assigned campaign id *)
  tenant : string;
  os : string;
  shard : int;  (** 0-based among this campaign's shards *)
  shards : int;
  epoch : int;
      (** lease epoch: 1 on first assignment, bumped by the hub every
          time the shard is revoked and reassigned — farm-to-hub traffic
          carries it back, which is how stale (zombie) workers are
          fenced *)
  seed : int64;  (** this shard's derived seed *)
  iterations : int;  (** this shard's slice of the budget *)
  boards : int;
  sync_every : int;
  backend : Eof_agent.Machine.backend;
  reset_policy : Eof_core.Campaign.reset_policy;
  schedule : Eof_core.Corpus.schedule;
}

val plan : campaign:int -> Tenant.config -> assignment list
(** One assignment per farm, in shard order, every lease at epoch 1. *)
