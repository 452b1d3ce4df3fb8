(** The seed corpus: interesting programs, their selection weights, and
    the schedule that turns them into mutation budgets.

    A program enters the corpus when it triggered new coverage or
    revealed a fault (the paper's "interesting" rule); selection for
    mutation favours seeds that recently produced new edges, decaying as
    they are reused. Under the [Energy] schedule a selected seed also
    receives an exponential mutation budget (AFLFast-style power
    scheduling) judged against the per-target rare-edge frontier. *)

type schedule =
  | Uniform  (** the original lottery: every pick earns one mutation *)
  | Energy
      (** power schedule: rare-edge frontier seeds earn exponentially
          larger mutation budgets before the next pick *)

val schedule_name : schedule -> string

val schedule_of_name : string -> (schedule, string) result

type target
(** One personality x API-table shape. Frontier maps are keyed on it,
    and every seed carries the target it was admitted under. *)

val default_target : target

val target_of : os:string -> table:Eof_rtos.Api.table -> target
(** Digest of the table's entry names and argument shapes, prefixed
    with the personality name: equal surfaces are equal targets. *)

type t

val create :
  ?capacity:int -> ?schedule:schedule -> ?target:target ->
  rng:Eof_util.Rng.t -> unit -> t
(** Default capacity 512 seeds; the stalest seeds are evicted. [target]
    tags locally admitted seeds (default {!default_target});
    [schedule] defaults to [Uniform], which behaves exactly as the
    corpus always has. *)

val schedule : t -> schedule

val add : ?target:target -> t -> prog:Prog.t -> new_edges:int -> crashed:bool -> bool
(** [false] if the program was a duplicate (by content hash). A narrow
    find (1-4 new edges) also joins its target's rare-edge frontier. *)

val size : t -> int

val is_empty : t -> bool

val pick : t -> Prog.t option
(** Weighted selection; [None] when empty. Each pick ages the seed.
    Equivalent to {!next} with the energy discarded.

    The draw order: a seed's weight is its score (at least 1); with
    [total] the live weights' sum and [r = Rng.int total], the winner is
    the first seed, scanning from the most recently admitted to the
    oldest, at which the running weight total exceeds [r]. Every fourth
    pick of a seed decays its score to three quarters. A draw and a
    decay cost O(log size). *)

val next : t -> target:target -> (Prog.t * int) option
(** The scheduler interface: one weighted selection plus the energy the
    caller should spend mutating it before picking again. Under
    [Uniform] the energy is always 1 (and the selection stream is
    identical to {!pick}); under [Energy] it is [1 lsl bonus] up to 16,
    boosted for seeds on [target]'s rare-edge frontier, first picks and
    crash/broad finds. *)

val on_frontier : t -> target:target -> Prog.t -> bool
(** Is this program currently among [target]'s recent rare finds? *)

val frontier_size : t -> target:target -> int

val merge : t -> t -> since:int -> int
(** [merge dst src ~since] imports every seed of [src] admitted at or
    after [since] (see {!since}) that [dst] has not seen (by content
    hash — a program already imported from another shard, or previously
    evicted from [dst], is rejected), preserving each seed's full
    schedule state (score, picks, admission credit, target tag) and
    [src]'s addition order; [dst]'s eviction policy applies as it fills.
    Passing [src]'s {!total_added} as of the caller's previous merge is
    exact, not an approximation: a seed admitted before it was live at
    that merge, so its hash is already in [dst]. [~since:0] considers
    every live seed. Per-target frontiers always merge in full, [src]'s
    rare finds ranking ahead of [dst]'s. Returns how many seeds were
    imported. [src] is untouched. This is the cross-shard corpus
    exchange primitive of the board farm and the hub. *)

val since : t -> int -> Prog.t list
(** [since t n]: the live seeds whose admission number is at least [n],
    most recent first (the order of {!progs}). A seed's admission number
    is the {!total_added} value at the moment {!add} admitted it or
    {!merge} imported it, so [since t (total_added t)] as of some
    earlier moment is exactly what a peer holding that cursor has not
    received yet. Costs the number of seeds returned (plus evicted
    slots among them not yet compacted away), not the corpus size. *)

val progs : t -> Prog.t list
(** Current seeds, most recent first (for persistence). *)

val total_added : t -> int
(** Seeds ever admitted or imported, evicted ones included: the next
    admission number. *)
