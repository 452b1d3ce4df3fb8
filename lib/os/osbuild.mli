open Eof_hw
open Eof_cov
open Eof_rtos

(** Assembling a bootable OS build for a board.

    A build is what the paper's "embedded OS adaptation" step produces:
    the board with a flashed image, the instrumentation site map, the
    coverage runtime, the well-known symbol addresses the host sets
    breakpoints on, and a way to create a fresh kernel instance at each
    boot. Personalities (FreeRTOS, RT-Thread, NuttX, Zephyr, PoKOS)
    plug in through {!spec}. *)

(** What a personality's [install] receives: per-boot kernel substrate
    plus instrumentation handles. *)
type ctx = {
  board : Board.t;
  reg : Kobj.t;
  heap : Heap.t;  (** kernel heap carved from board RAM *)
  sched : Sched.t;
  wheel : Swtimer.wheel;
  panic : Panic.ctx;
  instr : string -> Instr.t;  (** per-module instrumentation handles *)
  register_isr : (int -> unit) -> unit;
      (** install a GPIO interrupt handler; pending pins are dispatched
          to every registered handler once per kernel tick *)
  os_name : string;
}

type instance = { reg : Kobj.t; table : Api.table; tick : unit -> unit }

type spec = {
  os_name : string;
  version : string;
  base_kernel_bytes : int;  (** uninstrumented kernel blob size *)
  modules : (string * int) list;  (** module name -> site count *)
  banner : string;  (** boot banner printed over UART *)
  kernel_patches : (int * string) list;
      (** bytes to splice into the kernel blob at given blob offsets
          (e.g. a backup partition table a buggy loader later parses) *)
  install : ctx -> Api.table;
}

(** Well-known symbol addresses (agent binding points and exception
    entry points) the host resolves breakpoints against. *)
type syms = {
  sym_boot : int;
  sym_executor_main : int;
  sym_read_prog : int;
  sym_execute_one : int;
  sym_loop_back : int;
  sym_handle_exception : int;
  sym_assert_report : int;
  sym_buf_full : int;
  sym_call : int;  (** crossed before each API-call dispatch *)
}

type instrument_mode =
  | Instrument_full
  | Instrument_none
  | Instrument_only of string list
      (** record coverage only in the named modules (the Table-4 setup:
          instrumentation "strictly confined" to HTTP + JSON) *)

type t

val bootloader_bytes : int
(** Flash bytes reserved for the bootloader partition (the text section
    and site addresses start right after it). *)

val make : ?instrument:instrument_mode -> board_profile:Board.profile -> spec -> t
(** Build the image, flash the board, set up instrumentation. *)

val os_name : t -> string

val version : t -> string

val board : t -> Board.t

val sitemap : t -> Sitemap.t

val syms : t -> syms

val image : t -> Image.t
(** The golden image the host holds for reflashing. *)

val image_bytes : t -> int
(** The binary size (§5.5.1): bootloader + kernel + filesystem contents
    before padding to partition boundaries — instrumentation inflates
    the kernel part. *)

val covbuf_layout : t -> Sancov.Layout.t

val mailbox_base : t -> int

val mailbox_size : t -> int

val edge_capacity : t -> int

val module_block : t -> string -> Eof_cov.Sitemap.block option
(** The instrumentation-site block a module was assigned (used by
    baselines that plant breakpoints on code sites). *)

val api_signatures : t -> Api.table
(** The personality's API table captured at build time for host-side
    consumers (spec synthesis, generators, index lookup). Handlers in
    this table must not be invoked from the host — only the signatures
    (names, argument types, resources, weights) are meaningful there. *)

val fresh_instance : t -> instance
(** Per-boot kernel construction: registry, heap, scheduler, personality
    API table. Called by the agent entry after the boot check. *)
