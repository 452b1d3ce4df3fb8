(** Deterministic pseudo-random number generation.

    All randomness in the code base flows through this module so that
    campaigns, tests and benchmarks are reproducible from a single 64-bit
    seed.  The generator is SplitMix64 (Steele, Lea & Flood 2014): tiny,
    fast, and statistically adequate for fuzzing workloads. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] makes a fresh generator. Distinct seeds give independent
    streams for all practical purposes. *)

val copy : t -> t
(** [copy t] duplicates the state; the two generators then evolve
    independently. *)

val split : t -> t
(** [split t] derives a new, statistically independent generator and
    advances [t]. Useful to hand sub-components their own stream. *)

val next64 : t -> int64
(** Next raw 64-bit output. *)

val bits : t -> int
(** 62 uniformly random non-negative bits as an OCaml [int]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. @raise Invalid_argument if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val int64_in : t -> int64 -> int64 -> int64
(** Inclusive uniform range over int64. *)

val bool : t -> bool

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p] (clamped to [0,1]). *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. @raise Invalid_argument on [||]. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher-Yates shuffle. *)

val sample : t -> int -> 'a list -> 'a list
(** [sample t k xs] is up to [k] distinct elements of [xs] in random
    order. *)

val bytes : t -> int -> Bytes.t
(** [bytes t n] is [n] uniformly random bytes. *)
