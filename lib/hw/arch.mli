(** Processor architecture descriptors.

    The fuzzer is architecture-agnostic but must know word width and
    endianness to encode test-case programs the on-target agent can
    decode with primitive loads, and to format register reads in GDB
    remote-protocol replies. *)

type endianness = Little | Big

type family = Arm_cortex_m | Riscv32 | Xtensa | Powerpc | Mips

type t = {
  family : family;
  endianness : endianness;
  word_bits : int;  (** 32 for every supported family *)
  register_count : int;  (** general-purpose registers exposed over RSP *)
  pc_register : int;  (** GDB register number of the program counter *)
}

val arm_cortex_m : t
val riscv32 : t
val xtensa : t
val powerpc : t

val family_name : family -> string

val pp : Format.formatter -> t -> unit
