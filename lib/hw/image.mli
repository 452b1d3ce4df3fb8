(** Firmware images: a partition table plus per-partition contents and an
    integrity manifest.

    The host fuzzer keeps the golden image it built; state restoration
    reflashes it partition by partition. Integrity is the per-partition
    CRC-32 the simulated bootloader checks at boot. *)

type t = private {
  table : Partition.t;
  blobs : (string * string) list;  (** partition name -> contents *)
}

val build : table:Partition.t -> blobs:(string * string) list -> (t, string) result
(** Validates that every partition has exactly one blob and that each
    blob fits its partition. *)

val build_exn : table:Partition.t -> blobs:(string * string) list -> t

val synthesize :
  table:Partition.t -> seed:int64 -> ?payloads:(string * string) list -> unit -> t
(** Deterministic pseudo-random contents filling each partition, with
    optional named [payloads] overriding specific partitions (e.g. a
    kernel blob whose size reflects instrumentation). Payloads are
    truncated/padded to the partition size. *)

val manifest : t -> (string * int32) list
(** Partition name -> expected CRC-32 of its full partition extent. *)

val flash_all : t -> Flash.t -> unit
(** Erase + program every partition (full reflash). *)

val flash_one : t -> Flash.t -> string -> (unit, string) result
(** Reflash a single partition by name. *)

val corrupted :
  table:Partition.t -> manifest:(string * int32) list -> Flash.t -> string list
(** The boot check: names in [manifest] whose partition is missing from
    [table] or whose flash CRC ({!Flash.crc_range}, memoized) differs
    from the recorded one, in manifest order. *)

val verify : t -> Flash.t -> string list
(** {!corrupted} against the image's own table and manifest (empty list
    = image intact). *)
