(** Small-sample descriptive statistics for experiment reporting.

    Campaigns repeat 5 times per configuration (matching the paper's
    protocol); these helpers compute the aggregates shown in tables and
    figure bands. All functions raise [Invalid_argument] on empty input. *)

val mean : float list -> float

val min_max : float list -> float * float

val stddev : float list -> float
(** Sample standard deviation (n-1 denominator; 0 for singletons). *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [\[0,100\]], linear interpolation. *)

val improvement_pct : baseline:float -> subject:float -> float
(** [(subject - baseline) / baseline * 100]. *)

val fmt1 : float -> string
(** One decimal place, as the paper prints branch counts. *)

val fmt_pct : float -> string
(** Signed percentage with two decimals, e.g. ["+48.27%"]. *)
