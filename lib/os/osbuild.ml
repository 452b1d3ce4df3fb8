open Eof_hw
open Eof_cov
open Eof_rtos

type ctx = {
  board : Board.t;
  reg : Kobj.t;
  heap : Heap.t;
  sched : Sched.t;
  wheel : Swtimer.wheel;
  panic : Panic.ctx;
  instr : string -> Instr.t;
  register_isr : (int -> unit) -> unit;
  os_name : string;
}

type instance = {
  reg : Kobj.t;
  table : Api.table;
  entries : Api.entry array;
  tick : unit -> unit;
}

type spec = {
  os_name : string;
  version : string;
  base_kernel_bytes : int;
  modules : (string * int) list;
  banner : string;
  kernel_patches : (int * string) list;
  install : ctx -> Api.table;
}

type syms = {
  sym_boot : int;
  sym_executor_main : int;
  sym_read_prog : int;
  sym_execute_one : int;
  sym_loop_back : int;
  sym_handle_exception : int;
  sym_assert_report : int;
  sym_buf_full : int;
  sym_call : int;
}

type instrument_mode = Instrument_full | Instrument_none | Instrument_only of string list

type t = {
  spec : spec;
  signatures : Api.table;
  board : Board.t;
  sitemap : Sitemap.t;
  sancov : Sancov.t;  (* recording runtime *)
  (* Module name -> its site block and instrumentation handle, which
     records or only moves the PC per the build's instrument mode. *)
  blocks : (string, Sitemap.block * Instr.t) Hashtbl.t;
  boot_line : string;  (* the kernel's boot log line, the same every boot *)
  syms : syms;
  image : Image.t;
  covbuf : Sancov.Layout.t;
  mailbox_base : int;
  mailbox_size : int;
  binary_bytes : int;  (* unpadded bootloader + kernel + fs contents *)
}

(* Flash layout. *)
let bootloader_bytes = 0x4000

(* Per-site flash cost of instrumentation: the callback trampoline plus
   its table entry — this is what inflates the image (§5.5.1). *)
let flash_bytes_per_site = 44

(* RAM layout (offsets from RAM base). *)
let covbuf_offset = 0x200

let covbuf_records = 2048

let mailbox_offset = 0x4800

let mailbox_bytes = 0x2800

let heap_offset = 0x7000

let round_up n quantum = (n + quantum - 1) / quantum * quantum

(* The kernel blob and flash image are pure functions of the personality
   identity, the instrumentation-inflated kernel size, the patch list and
   the partition geometry — a farm building N identical boards should pay
   the (hundreds-of-KB pseudo-random) synthesis once, not once per board.
   [Image.t] is immutable and [Board.install] copies it into per-board
   flash, so sharing one value across boards is sound; the mutex covers
   fleet builds racing from multiple domains. *)
let image_memo_lock = Stdlib.Mutex.create ()

let image_memo : (string * string * int * int * int, Image.t) Hashtbl.t =
  Hashtbl.create 8

let synthesize_image spec ~table ~kernel_bytes =
  let key =
    ( spec.os_name,
      spec.version,
      kernel_bytes,
      Hashtbl.hash spec.kernel_patches,
      Hashtbl.hash table )
  in
  Stdlib.Mutex.protect image_memo_lock (fun () ->
      match Hashtbl.find_opt image_memo key with
      | Some image -> image
      | None ->
        if Hashtbl.length image_memo >= 32 then Hashtbl.reset image_memo;
        let kernel_seed =
          Int64.of_int (Hashtbl.hash (spec.os_name, spec.version, kernel_bytes))
        in
        let kernel_blob =
          let blob = Eof_util.Rng.bytes (Eof_util.Rng.create kernel_seed) kernel_bytes in
          List.iter
            (fun (off, data) ->
              if off < 0 || off + String.length data > Bytes.length blob then
                invalid_arg "Osbuild.make: kernel patch outside blob";
              Bytes.blit_string data 0 blob off (String.length data))
            spec.kernel_patches;
          Bytes.unsafe_to_string blob
        in
        let image =
          Image.synthesize ~table
            ~seed:(Int64.of_int (Hashtbl.hash (spec.os_name, spec.version)))
            ~payloads:[ ("kernel", kernel_blob) ]
            ()
        in
        Hashtbl.replace image_memo key image;
        image)

(* Per-boot kernel construction. Takes the build's parts rather than the
   build, so [make] can run it before the build exists. Only the kernel
   state is new on each boot: handlers close over it, and everything
   else is the build's. *)
let instantiate ~spec ~board ~syms ~blocks ~boot_line =
  let profile = Board.profile board in
  let reg = Kobj.create () in
  let heap_base = profile.Board.ram_base + heap_offset in
  let heap_size = min 0x20000 (profile.Board.ram_size - heap_offset - 0x1000) in
  let heap =
    match Heap.init ~mem:(Board.ram board) ~base:heap_base ~size:heap_size with
    | Ok heap -> heap
    | Error e -> invalid_arg ("Osbuild.fresh_instance: kernel heap: " ^ e)
  in
  let wheel = Swtimer.create_wheel () in
  let sched = Sched.create ~reg ~wheel in
  let panic =
    {
      Panic.os_name = spec.os_name;
      panic_site = syms.sym_handle_exception;
      assert_site = syms.sym_assert_report;
    }
  in
  let instr name =
    match Hashtbl.find_opt blocks name with
    | None -> invalid_arg (Printf.sprintf "Osbuild: no instrumentation block %S" name)
    | Some (_, instr) -> instr
  in
  let isr_handlers = ref [] in
  let register_isr f = isr_handlers := f :: !isr_handlers in
  let ctx =
    {
      board;
      reg;
      heap;
      sched;
      wheel;
      panic;
      instr;
      register_isr;
      os_name = spec.os_name;
    }
  in
  let table = spec.install ctx in
  Klog.line spec.banner;
  Klog.line boot_line;
  let gpio = Board.gpio board in
  let tick () =
    (* Interrupt dispatch precedes the scheduler, as a real tick ISR
       chain would. *)
    (match Gpio.drain_pending gpio with
     | [] -> ()
     | pins ->
       List.iter (fun pin -> List.iter (fun isr -> isr pin) !isr_handlers) pins);
    Sched.tick sched
  in
  { reg; table; entries = Array.of_list table.Api.entries; tick }

let make ?(instrument = Instrument_full) ~board_profile spec =
  let board = Board.create board_profile in
  let profile = Board.profile board in
  let sitemap = Sitemap.create ~text_base:(profile.Board.flash_base + bootloader_bytes) in
  let agent_block = Sitemap.alloc sitemap ~name:"agent" ~count:16 in
  let sites =
    List.map (fun (name, count) -> (name, Sitemap.alloc sitemap ~name ~count)) spec.modules
  in
  let covbuf =
    { Sancov.Layout.base = profile.Board.ram_base + covbuf_offset;
      capacity_records = covbuf_records }
  in
  let buf_full_site = Sitemap.site_addr agent_block 7 in
  let instrumented = instrument <> Instrument_none in
  let sancov =
    Sancov.create ~sitemap ~ram:(Board.ram board) ~layout:covbuf
      ~mode:(if instrumented then Sancov.Instrumented else Sancov.Uninstrumented)
      ~buf_full_site
  in
  let sancov_silent =
    Sancov.create ~sitemap ~ram:(Board.ram board) ~layout:covbuf
      ~mode:Sancov.Uninstrumented ~buf_full_site
  in
  let record_in =
    match instrument with
    | Instrument_full -> fun _ -> true
    | Instrument_none -> fun _ -> false
    | Instrument_only names -> fun name -> List.mem name names
  in
  let blocks = Hashtbl.create (List.length sites) in
  List.iter
    (fun (name, block) ->
      let sancov = if record_in name then sancov else sancov_silent in
      Hashtbl.replace blocks name (block, Instr.of_sancov ~sancov ~block))
    sites;
  let syms =
    {
      sym_boot = Sitemap.site_addr agent_block 0;
      sym_executor_main = Sitemap.site_addr agent_block 1;
      sym_read_prog = Sitemap.site_addr agent_block 2;
      sym_execute_one = Sitemap.site_addr agent_block 3;
      sym_loop_back = Sitemap.site_addr agent_block 4;
      sym_handle_exception = Sitemap.site_addr agent_block 5;
      sym_assert_report = Sitemap.site_addr agent_block 6;
      sym_buf_full = buf_full_site;
      sym_call = Sitemap.site_addr agent_block 8;
    }
  in
  (* Image: bootloader + kernel + filesystem. The kernel blob grows with
     instrumentation, which is the memory-overhead measurement. *)
  let kernel_bytes =
    spec.base_kernel_bytes
    + (if instrumented then Sitemap.site_count sitemap * flash_bytes_per_site else 0)
  in
  (* Partition boundaries must fall on sector boundaries: erasing one
     partition must never wipe a neighbour that shares its sector. *)
  let sector = profile.Board.sector_size in
  let bootloader_part_bytes = round_up bootloader_bytes sector in
  let kernel_part_bytes = round_up kernel_bytes sector in
  let fs_bytes = round_up 0x10000 sector in
  let table =
    [
      { Partition.name = "bootloader"; offset = 0; size = bootloader_part_bytes };
      { Partition.name = "kernel"; offset = bootloader_part_bytes; size = kernel_part_bytes };
      {
        Partition.name = "fs";
        offset = bootloader_part_bytes + kernel_part_bytes;
        size = fs_bytes;
      };
    ]
  in
  (match Partition.validate ~flash_size:profile.Board.flash_size table with
   | Ok () -> ()
   | Error e ->
     invalid_arg
       (Printf.sprintf "Osbuild.make: %s image does not fit %s flash: %s" spec.os_name
          profile.Board.name e));
  let image = synthesize_image spec ~table ~kernel_bytes in
  Board.install board image;
  let boot_line =
    Printf.sprintf "[%s] %s %s booted on %s (%s)" spec.os_name spec.os_name spec.version
      profile.Board.name
      (Format.asprintf "%a" Arch.pp profile.Board.arch)
  in
  (* Every boot builds the same table shape around fresh handlers, so
     one throwaway instance, under a silent handler, stands for all of
     them: its shape is validated here, once per build, and its
     signatures serve host-side consumers. *)
  let signatures =
    Eof_exec.Target.run_silent (fun () -> (instantiate ~spec ~board ~syms ~blocks ~boot_line).table)
  in
  Api.validate signatures;
  {
    spec;
    signatures;
    board;
    sitemap;
    sancov;
    blocks;
    boot_line;
    syms;
    image;
    covbuf;
    mailbox_base = profile.Board.ram_base + mailbox_offset;
    mailbox_size = mailbox_bytes;
    binary_bytes = bootloader_bytes + kernel_bytes + 0x10000;
  }

let os_name t = t.spec.os_name

let version t = t.spec.version

let board t = t.board

let sitemap t = t.sitemap

let syms t = t.syms

let image t = t.image

let image_bytes t = t.binary_bytes

let covbuf_layout t = t.covbuf

let mailbox_base t = t.mailbox_base

let mailbox_size t = t.mailbox_size

let edge_capacity t = Sancov.edge_capacity t.sancov

let module_block t name = Option.map fst (Hashtbl.find_opt t.blocks name)

let fresh_instance t =
  instantiate ~spec:t.spec ~board:t.board ~syms:t.syms ~blocks:t.blocks ~boot_line:t.boot_line

let api_signatures t = t.signatures
