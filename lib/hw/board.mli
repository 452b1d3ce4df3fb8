(** A simulated microcontroller development board.

    Assembles flash, RAM, UART and the virtual clock under a profile that
    captures what the fuzzer must adapt to per target: architecture,
    endianness, memory map, debug-port flavour, and whether a
    peripheral-accurate emulator exists for it (the property that decides
    Tardis/Gustave support in Table 1).

    Memory reads dispatch by address to flash or RAM like a bus matrix.
    Debug writes only touch RAM; flash is modified exclusively through
    the flash-programming operations, as with a real debug probe. *)

type debug_port = Jtag | Swd | Emulated

type profile = {
  name : string;
  arch : Arch.t;
  flash_base : int;
  flash_size : int;
  sector_size : int;
  ram_base : int;
  ram_size : int;
  cpu_mhz : int;
  debug_port : debug_port;
  peripheral_emulation : bool;
      (** a peripheral-accurate emulator exists (enables emulation-based
          tools such as Tardis/Gustave on this board) *)
}

type t

val create : profile -> t

val profile : t -> profile

val flash : t -> Flash.t

val ram : t -> Memory.t

val uart : t -> Uart.t

val gpio : t -> Gpio.t

val clock : t -> Clock.t

val install : t -> Image.t -> unit
(** Flash the image and record its partition table + integrity manifest,
    as a factory programming step would. *)

val partition_table : t -> Partition.t

val boot_ok : t -> bool
(** The simulated bootloader's integrity check: every partition CRC must
    match the manifest recorded at {!install}/reflash time. The CRCs are
    memoized in the flash and recomputed only after flash changed, so a
    boot that follows no flash write costs O(partitions), not O(image). *)

val snapshot : t -> Snapshot.t
(** Capture a copy-on-write snapshot of RAM and flash, charging the
    board clock the save cost. Take it right after {!install} so the
    saved state is the pristine image; the partition table and manifest
    are not part of the snapshot. *)

val restore_snapshot : t -> Snapshot.t -> int
(** Copy back only the pages written since the capture (or the previous
    restore) and charge the clock per dirty page; returns the pages
    copied. Callers follow with {!reset}, exactly like a reflash. *)

val reset : t -> unit
(** Power-cycle: clear RAM and the UART. Flash persists, and the clock
    keeps counting (it is the simulation's monotonic time base). *)

val power_cycles : t -> int

val read_mem : t -> addr:int -> len:int -> (string, Fault.t) result
(** Debugger-style read dispatching to flash or RAM. *)

val write_ram : t -> addr:int -> string -> (unit, Fault.t) result
(** Debugger-style write; fails with a bus fault outside RAM. *)

val read_counted :
  t -> count_addr:int -> data_addr:int -> stride:int -> max_count:int -> reset:bool ->
  (int * string, Fault.t) result
(** The counted read every coverage drain is built on: read the 32-bit
    counter word at [count_addr], read the first
    [max 0 (min count max_count)] entries of [stride] bytes from
    [data_addr], then, when [reset], zero the counter. Returns the raw
    counter value with the entries read. The probe's [vBatch] counted
    op, the native fused drain and the emulation baselines all call
    this; a fault at any step returns it and leaves the counter as it
    was. *)

val debug_port_name : debug_port -> string
