(** Fixed-capacity bit sets backed by [Bytes].

    Used for host-side coverage bitmaps: dense, cheap to clear, cheap to
    diff. Indices are 0-based; out-of-range indices raise
    [Invalid_argument]. *)

type t

val create : int -> t
(** [create n] is an empty set with capacity [n] bits. *)

val capacity : t -> int

val mem : t -> int -> bool

val add : t -> int -> bool
(** [add t i] sets bit [i] and returns [true] iff it was previously
    unset (i.e. the bit is new). *)

val count : t -> int
(** Number of set bits. *)

val copy : t -> t

val union_into : dst:t -> src:t -> int
(** [union_into ~dst ~src] ors [src] into [dst]; returns how many bits
    were newly set in [dst]. Capacities must match. *)

val to_bytes : t -> string
(** The raw backing bytes ([(capacity + 7) / 8] of them), for wire
    transfer. Little-endian bit order within each byte (bit [i] lives at
    byte [i / 8], mask [1 lsl (i mod 7)]). *)

val of_bytes : capacity:int -> string -> t
(** Rebuild a set from {!to_bytes} output. Raises [Invalid_argument] if
    the string length does not match the capacity; stray bits past
    [capacity] in the final byte are masked off. *)

val to_list : t -> int list
