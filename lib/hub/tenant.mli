(** Per-tenant campaign submissions.

    A tenant is one user of the fleet: their submission names the OS
    personality to fuzz, the seed, the budget, how many farms to shard
    across and how many boards each farm runs — everything the hub needs
    to plan the campaign (see {!Shard.plan}). *)

type config = {
  tenant : string;  (** 1-64 chars of [A-Za-z0-9_-] *)
  os : string;  (** OS personality name, resolved by the hub *)
  seed : int64;
  iterations : int;  (** total payload budget across all farms *)
  boards : int;  (** boards per farm *)
  farms : int;  (** shard count: how many farms share the budget *)
  sync_every : int;  (** farm epoch period (payloads) *)
  backend : Eof_agent.Machine.backend;  (** execution backend per board *)
  reset_policy : Eof_core.Campaign.reset_policy;
      (** board reset policy for every farm in this campaign *)
  schedule : Eof_core.Corpus.schedule;
      (** seed scheduling for every board (default uniform) *)
}

val default : config
(** [default]: Zephyr, seed 1, 200 iterations, 1 farm of 1 board,
    native backend. *)

val name_ok : string -> bool
(** 1-64 chars of [A-Za-z0-9_-] — the identifier rule shared by tenant
    names and worker names. *)

val max_u32 : int
(** [0x7FFF_FFFF]: the widest value a {!Protocol} u32 field carries (a
    word that decodes into a non-negative [int]). *)

val max_u16 : int
(** [0xFFFF]: the widest {!Protocol} u16 field, and the longest string
    it carries. *)

val validate : config -> (unit, string) result
(** Names well formed, every count [>= 1], and every field within what
    {!Protocol} carries: [iterations] and [sync_every] at most
    [0x7FFF_FFFF], [boards] and [farms] at most [0xFFFF], [os] at most
    [0xFFFF] bytes. *)

val to_string : config -> string

val of_spec : string -> (config, string) result
(** Parse the CLI's [key=value,key=value] submission syntax over
    {!default} — keys: [name]/[tenant], [os], [seed], [iterations]/[n],
    [boards], [farms], [sync]/[sync_every], [backend],
    [reset]/[reset_policy], [schedule]. The result is {!validate}d. *)
