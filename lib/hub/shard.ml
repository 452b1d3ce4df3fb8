module Farm = Eof_core.Farm

type assignment = {
  campaign : int;
  tenant : string;
  os : string;
  shard : int;
  shards : int;
  epoch : int;
  seed : int64;
  iterations : int;
  boards : int;
  sync_every : int;
  backend : Eof_agent.Machine.backend;
  reset_policy : Eof_core.Campaign.reset_policy;
  schedule : Eof_core.Corpus.schedule;
}

(* Shard 0 keeps the tenant's seed (a one-farm campaign is exactly the
   plain farm run), the others derive statistically independent streams
   — the same mixing {!Eof_core.Farm} uses one level down for its
   boards, with a distinct multiplier so a shard's boards never collide
   with another shard's seed. The budget splits as the farm's does. *)
let shard_mix = 0xBF58476D1CE4E5B9L

let plan ~campaign (c : Tenant.config) =
  List.init c.Tenant.farms (fun k ->
      {
        campaign;
        tenant = c.Tenant.tenant;
        os = c.Tenant.os;
        shard = k;
        shards = c.Tenant.farms;
        epoch = 1;
        seed = Farm.derive_seed ~mix:shard_mix c.Tenant.seed k;
        iterations = Farm.shard_iterations ~total:c.Tenant.iterations ~shards:c.Tenant.farms k;
        boards = c.Tenant.boards;
        sync_every = c.Tenant.sync_every;
        backend = c.Tenant.backend;
        reset_policy = c.Tenant.reset_policy;
        schedule = c.Tenant.schedule;
      })
