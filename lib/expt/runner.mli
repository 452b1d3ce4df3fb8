(** Shared experiment plumbing: repeated campaigns, aggregation, the
    full-system tool matrix, and the iteration-to-hours mapping.

    Scaling: the paper runs 24-hour wall-clock campaigns. Here one
    campaign iteration budget stands for 24 virtual hours; time series
    map iteration fractions onto the hour axis linearly, preserving the
    curve shapes. [EOF_BENCH_SCALE] (a float, default 1.0) scales every
    budget for quicker smoke runs. *)

val scale : unit -> float

val scaled : int -> int
(** [max 50 (int_of_float (n * scale))]. *)

val seeds : int -> int64 list
(** The fixed per-repetition seeds (5 in the paper's protocol). *)

val repetitions : int
(** 5. *)

type tool = EOF | EOF_nf | Tardis | Gustave

val tool_name : tool -> string

val run_tool :
  tool -> seed:int64 -> iterations:int -> Targets.hw_target ->
  (Eof_core.Campaign.outcome, Eof_util.Eof_error.t) result
(** Build a fresh target instance and run one campaign with the tool's
    mechanism. EOF/EOF-nf run on the hardware board; Tardis/Gustave run
    on their emulator builds. *)

type cell = {
  tool : tool;
  os : string;
  outcomes : Eof_core.Campaign.outcome list;  (** one per seed *)
}

val full_system_matrix : ?iterations:int -> ?reps:int -> unit -> cell list
(** The Table-3 / Figure-7 data: EOF, EOF-nf and Tardis on the four
    hardware OSs; EOF, EOF-nf and Gustave on PoKOS. Results are computed
    once per process and memoized. *)

val mean_coverage : cell -> float

val coverage_of : cell list -> tool:tool -> os:string -> float option

val outcomes_of : cell list -> tool:tool -> os:string -> Eof_core.Campaign.outcome list

val union_crashes : Eof_core.Campaign.outcome list -> Eof_core.Crash.t list
(** Distinct crashes across repeated runs (first occurrence kept). *)

val hours_of_series :
  iterations:int -> Eof_core.Campaign.sample list -> (float * int) list
(** Map an outcome's sample series onto the 0..24h axis. *)
