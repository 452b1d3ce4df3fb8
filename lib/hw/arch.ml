type endianness = Little | Big

type family = Arm_cortex_m | Riscv32 | Xtensa | Powerpc | Mips

type t = {
  family : family;
  endianness : endianness;
  word_bits : int;
  register_count : int;
  pc_register : int;
}

let arm_cortex_m =
  { family = Arm_cortex_m; endianness = Little; word_bits = 32; register_count = 17; pc_register = 15 }

let riscv32 =
  { family = Riscv32; endianness = Little; word_bits = 32; register_count = 33; pc_register = 32 }

let xtensa =
  { family = Xtensa; endianness = Little; word_bits = 32; register_count = 64; pc_register = 0 }

let powerpc =
  { family = Powerpc; endianness = Big; word_bits = 32; register_count = 32; pc_register = 64 }

let family_name = function
  | Arm_cortex_m -> "ARM"
  | Riscv32 -> "RISC-V"
  | Xtensa -> "Xtensa"
  | Powerpc -> "Power PC"
  | Mips -> "MIPS"

let pp fmt t =
  Format.fprintf fmt "%s/%db/%s" (family_name t.family) t.word_bits
    (match t.endianness with Little -> "le" | Big -> "be")
