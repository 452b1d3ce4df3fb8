(** Flash partition tables.

    The paper's state-restoration procedure (Algorithm 1) extracts the
    partition table from the OS build configuration and reflashes each
    partition at its recorded offset. We model the build configuration as
    a small text format:

    {v
    # comment
    partition bootloader offset=0x0000 size=0x4000
    partition kernel offset=0x4000 size=0x30000
    v}

    Offsets are relative to the flash base. Tables are validated for
    overlap and flash-size fit at parse time, because — as the paper
    notes — "any misconfiguration in these addresses can lead to critical
    failures". *)

type entry = { name : string; offset : int; size : int }

type t = entry list

val validate : flash_size:int -> t -> (unit, string) result

val find : t -> string -> entry option
