let kib n = n * 1024

let mib n = n * 1024 * 1024

let stm32f4_disco =
  {
    Board.name = "stm32f4-disco";
    arch = Arch.arm_cortex_m;
    flash_base = 0x0800_0000;
    flash_size = mib 1;
    sector_size = kib 16;
    ram_base = 0x2000_0000;
    ram_size = kib 192;
    cpu_mhz = 168;
    debug_port = Board.Swd;
    peripheral_emulation = false;
  }

let stm32h745_nucleo =
  {
    Board.name = "stm32h745-nucleo";
    arch = Arch.arm_cortex_m;
    flash_base = 0x0800_0000;
    flash_size = mib 2;
    sector_size = kib 128;
    ram_base = 0x2400_0000;
    ram_size = kib 512;
    cpu_mhz = 480;
    debug_port = Board.Swd;
    peripheral_emulation = false;
  }

let esp32_devkitc =
  {
    Board.name = "esp32-devkitc";
    arch = Arch.xtensa;
    flash_base = 0x4000_0000;
    flash_size = mib 4;
    sector_size = kib 4;
    ram_base = 0x3FFB_0000;
    ram_size = kib 320;
    cpu_mhz = 240;
    debug_port = Board.Jtag;
    peripheral_emulation = true;
  }

let hifive1 =
  {
    Board.name = "hifive1-revb";
    arch = Arch.riscv32;
    flash_base = 0x2000_0000;
    flash_size = mib 4;
    sector_size = kib 4;
    ram_base = 0x8000_0000;
    ram_size = kib 64;
    cpu_mhz = 320;
    debug_port = Board.Jtag;
    peripheral_emulation = true;
  }

let qemu_mps2 =
  {
    Board.name = "qemu-mps2-an385";
    arch = Arch.arm_cortex_m;
    flash_base = 0x0000_0000;
    flash_size = mib 4;
    sector_size = kib 4;
    ram_base = 0x2000_0000;
    ram_size = mib 4;
    cpu_mhz = 25;
    debug_port = Board.Emulated;
    peripheral_emulation = true;
  }

let qemu_pok =
  {
    Board.name = "qemu-pok";
    arch = Arch.arm_cortex_m;
    flash_base = 0x0000_0000;
    flash_size = mib 2;
    sector_size = kib 4;
    ram_base = 0x2000_0000;
    ram_size = mib 1;
    cpu_mhz = 100;
    debug_port = Board.Emulated;
    peripheral_emulation = true;
  }
