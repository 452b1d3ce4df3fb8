open Eof_spec

(** API-aware test-case generation and mutation.

    Generation builds call sequences from a validated specification,
    scoring candidates by resource dependencies: a call consuming a
    resource only becomes eligible once some earlier call produces it,
    and producers of still-missing kinds are boosted — the paper's
    "scoring call adjacency by resource dependencies". Argument values
    mix in-range uniforms with boundary values, special constants, and a
    dictionary of structure-bearing strings (JSON documents, HTTP
    requests, long names), because that is what drives deep handlers.

    [dep_aware:false] (ablation A2) drops the dependency logic: resource
    arguments get arbitrary earlier-call references (still well-typed at
    the wire level via position, but usually the wrong kind), so most
    calls bounce off precondition checks — the AFL-style failure mode the
    paper describes. *)

type t

val create :
  ?dep_aware:bool -> rng:Eof_util.Rng.t -> spec:Ast.t -> table:Eof_rtos.Api.table ->
  unit -> t

val generate : t -> max_len:int -> Prog.t
(** A fresh program of 1..[max_len] calls. Always {!Prog.validate}-clean
    when [dep_aware] (otherwise resource refs may be kind-mismatched,
    deliberately). *)

val mutate : t -> Prog.t -> max_len:int -> Prog.t
(** One mutation step: tweak an argument, insert, delete, duplicate, or
    swap calls — with resource references remapped so the program stays
    structurally valid. *)

val mutate_focus : t -> Prog.t -> max_len:int -> Prog.t
(** Gradient-phase mutation: integer-argument tweaks/replays and call
    growth only (see the focused-exploitation phase in the campaign). *)

val add_int_hint : t -> int64 -> unit
(** Feed a harvested comparison operand (from the target's trace_cmp
    ring) into the generator's value dictionary — the input-to-state
    trick the paper's write_comp_data records enable. Deduplicated,
    bounded. *)

val hint_count : t -> int

val substitute : t -> Prog.t -> pairs:(int64 * int64) list -> Prog.t option
(** Input-to-state substitution: find an integer argument whose value
    appeared on one side of a recorded comparison and replace it with
    the other side (folded into 32 bits, as the ring stores them).
    [None] when no argument matches any pair. *)

val substitute_all : t -> Prog.t -> pairs:(int64 * int64) list -> (Prog.t -> bool) -> unit
(** [substitute_all t prog ~pairs f] calls [f] on every distinct
    input-to-state patch (constant and constant+1 per matching
    argument/comparison pair), in order, for systematic enumeration.
    It stops as soon as [f] returns [false], and builds no patch past
    that point. Draws no randomness. *)

val gen_value : t -> Ast.ty -> Prog.arg
(** Exposed for tests: generate one argument value with no producer in
    scope (a resource argument degrades to [Int 0L]). *)

val kind_id : t -> string -> int option
(** Exposed for tests: the dense id of a resource kind. The spec's
    resources are [0 .. n-1] in declaration order. *)

val pick_call : t -> pos:int -> have:bool array -> (Ast.call * int) option
(** Exposed for tests: one weighted call pick at position [pos], where
    [have.(k)] says whether kind id [k] has a producer before [pos].
    Candidates are taken in spec order; a dep-aware pick excludes calls
    with an unproduced resource argument and triples the weight of
    producers of a still-missing spec resource, and a blind pick
    excludes only resource consumers at position 0. The winner is the
    first candidate whose running weight total exceeds [Rng.int total].
    [None] when nothing is eligible.
    @raise Invalid_argument if the eligible weights sum to zero. *)
