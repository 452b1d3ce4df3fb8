module Farm = Eof_core.Farm
module Campaign = Eof_core.Campaign

type assignment = { campaign : int; shard : int; epoch : int; config : Tenant.config }

(* Shard 0 keeps the tenant's seed (a one-farm campaign is exactly the
   plain farm run), the others derive statistically independent streams
   — the same mixing {!Eof_core.Farm} uses one level down for its
   boards, with a distinct multiplier so a shard's boards never collide
   with another shard's seed. The budget splits as the farm's does. *)
let shard_mix = 0xBF58476D1CE4E5B9L

let plan ~campaign (config : Tenant.config) =
  List.init config.Tenant.farms (fun shard -> { campaign; shard; epoch = 1; config })

let farm_config { shard; config = c; _ } =
  {
    Farm.boards = c.Tenant.boards;
    sync_every = c.Tenant.sync_every;
    base =
      {
        Campaign.default_config with
        Campaign.seed = Farm.derive_seed ~mix:shard_mix c.Tenant.seed shard;
        iterations =
          Farm.shard_iterations ~total:c.Tenant.iterations ~shards:c.Tenant.farms shard;
        backend = c.Tenant.backend;
        reset_policy = c.Tenant.reset_policy;
        schedule = c.Tenant.schedule;
      };
  }
