(** Host-side coverage accumulation. *)

type t

val create : edge_capacity:int -> t

val merge_array : t -> int array -> len:int -> int
(** Fold the first [len] edge indices of a scratch array in; returns
    how many were new. Edges outside the capacity are ignored
    (defensive against a corrupted coverage buffer). *)

val union_into : dst:t -> src:t -> int
(** Or [src]'s bitmap into [dst]'s; returns how many edges were new to
    [dst]. Capacities must match (same build). This is the farm's epoch
    merge: one bulk union per sync instead of re-replaying edge lists. *)

val covered : t -> int
(** Distinct edges seen so far. *)

val snapshot : t -> Eof_util.Bitset.t
(** A copy of the current bitmap. *)
