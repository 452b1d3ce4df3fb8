(** Campaign sharding: how the hub splits one tenant submission across
    farms.

    The same recursive structure the farm applies to boards applies one
    level up to farms: the total payload budget splits round-robin,
    shard 0 keeps the tenant's seed (so a one-farm campaign degenerates
    to the plain farm run) and the other shards derive independent
    seed streams. An assignment carries only the tenant's config and
    the shard's index; {!farm_config} is the one place that derivation
    happens. *)

type assignment = {
  campaign : int;  (** hub-assigned campaign id *)
  shard : int;  (** 0-based among this campaign's [config.farms] shards *)
  epoch : int;
      (** lease epoch: 1 on first assignment, bumped by the hub every
          time the shard is revoked and reassigned — farm-to-hub traffic
          carries it back, which is how stale (zombie) workers are
          fenced *)
  config : Tenant.config;  (** the campaign, as the tenant submitted it *)
}

val shard_mix : int64
(** The {!Eof_core.Farm.derive_seed} multiplier for shard seeds —
    distinct from the farm's board mix, so a shard's boards never
    collide with another shard's seed. *)

val plan : campaign:int -> Tenant.config -> assignment list
(** One assignment per farm, in shard order, every lease at epoch 1. *)

val farm_config : assignment -> Eof_core.Farm.config
(** The farm this shard runs: its derived seed
    ([Farm.derive_seed ~mix:shard_mix config.seed shard]), its slice of
    the budget ([Farm.shard_iterations]), and the tenant's boards,
    sync period, backend, reset policy and schedule over
    {!Eof_core.Campaign.default_config}. *)
