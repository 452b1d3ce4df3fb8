(** Board-farm scaling curves: the same campaign budget sharded across
    1/2/4/8 boards, measuring payload throughput and time-to-coverage.
    The curve's shape (board counts, sync interval, seed) is fixed; only
    the budget is a parameter.

    Throughput is measured against the {e farm clock} (the slowest
    board's virtual time): physical boards execute in real parallel
    regardless of the host, so this is the quantity a real board farm
    scales — the single-probe round-trip budget that PR 2's batching
    attacked is here multiplied by the number of probes. Host wall time
    is also recorded; the farm steps its boards one at a time on the
    host, so it grows with the total budget, not the board count. *)

type point = {
  boards : int;
  payloads : int;  (** programs actually executed *)
  coverage : int;  (** global distinct edges *)
  virtual_s : float;  (** farm clock at campaign end *)
  wall_s : float;  (** host wall clock *)
  throughput : float;  (** payloads per farm-clock second *)
  speedup : float;  (** throughput relative to the boards=1 point *)
  time_to_cov : float option;
      (** farm-clock seconds until the common coverage target (60% of
          the one-board final coverage) was first reached at a sync
          point; [None] if never *)
  crashes : int;  (** distinct crash signatures, cross-board dedup *)
}

val run : ?iterations:int -> unit -> point list
(** Runs the Zephyr/STM32F4 campaign once per board count — 1, 2, 4
    and 8 boards, each with total budget [iterations] (default
    [Runner.scaled 1200]), an epoch sync every 25 programs and seed 11
    — and returns one point per count, in that order. The boards=1
    point anchors [speedup] and the coverage target. *)

val render : point list -> string
(** An aligned text table of the scaling curve. *)
