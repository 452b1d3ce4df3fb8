(** Sets of non-overlapping integer intervals.

    Used by the memory map to validate that flash partitions do not
    overlap and that debug-link accesses fall inside mapped regions.
    Intervals are half-open: [\[lo, hi)] with [lo < hi]. *)

type t

val empty : t

val add : t -> lo:int -> hi:int -> (t, string) result
(** Fails with a description if the interval is empty, negative, or
    overlaps an existing interval. *)
