(** CRC-32 (IEEE 802.3, reflected polynomial [0xEDB88320]).

    Used as the integrity check for flash partitions: the simulated
    bootloader refuses to boot an image whose partition checksums do not
    match, which is how image corruption manifests as a boot failure. *)

val digest_bytes : Bytes.t -> pos:int -> len:int -> int32
(** CRC of a byte range. @raise Invalid_argument on an invalid range. *)

val digest_string : string -> int32
