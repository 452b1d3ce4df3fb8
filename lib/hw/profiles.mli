(** Canonical board profiles used across the evaluation.

    Mirrors the hardware mix in the paper: STM32 boards (ARM Cortex-M,
    SWD), an ESP32 devkit (Xtensa, JTAG), a RISC-V board, and
    emulator-backed boards for the Tardis/Gustave comparisons. *)

val stm32f4_disco : Board.profile
(** STM32F407 Discovery: 1 MiB flash, 192 KiB RAM, 168 MHz, SWD. *)

val stm32h745_nucleo : Board.profile
(** STM32H745 Nucleo: the industrial-control board the paper's intro
    cites as having no peripheral-accurate emulator. *)

val esp32_devkitc : Board.profile
(** ESP32 DevKitC: Xtensa, JTAG, peripheral emulation available. *)

val hifive1 : Board.profile
(** SiFive HiFive1: RISC-V, JTAG. *)

val qemu_mps2 : Board.profile
(** QEMU MPS2-AN385: the emulated ARM board Tardis runs on. *)

val qemu_pok : Board.profile
(** The customized QEMU board Gustave uses for POK. *)
