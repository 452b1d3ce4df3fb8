(** Table 2 — previously-unknown bugs detected by EOF.

    Runs on the full-system matrix's EOF campaigns (all seeds), matches
    every deduplicated crash against the ground-truth catalog, and
    renders the paper's table with a found/missed status plus which
    monitor detected each bug. *)

type row = {
  bug : Targets.bug;
  found : bool;
  monitor : string;  (** how EOF detected it, when found *)
}

val render : Runner.cell list -> string
