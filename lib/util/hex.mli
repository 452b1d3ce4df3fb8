(** Hexadecimal encoding helpers.

    The GDB remote serial protocol transmits memory contents and some
    command payloads as lowercase hex pairs; this module implements the
    encoding. *)

val encode : string -> string
(** Lowercase hex pairs, e.g. [encode "OK" = "4f4b"]. *)

val decode : string -> (string, string) result
(** Inverse of {!encode}. [Error _] on odd length or non-hex digits. *)

val to_nibble : char -> int option
