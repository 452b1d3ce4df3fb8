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

type instance = { reg : Kobj.t; table : Api.table; tick : unit -> unit }

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
  mutable signatures : Api.table option;
  board : Board.t;
  sitemap : Sitemap.t;
  sancov : Sancov.t;  (* recording runtime *)
  sancov_silent : Sancov.t;  (* PC movement only, no records *)
  blocks : (string * Sitemap.block) list;
  record_in : string -> bool;
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

let make ?(instrument = Instrument_full) ~board_profile spec =
  let board = Board.create board_profile in
  let profile = Board.profile board in
  let sitemap = Sitemap.create ~text_base:(profile.Board.flash_base + bootloader_bytes) in
  let agent_block = Sitemap.alloc sitemap ~name:"agent" ~count:16 in
  let blocks =
    List.map
      (fun (name, count) -> (name, Sitemap.alloc sitemap ~name ~count))
      spec.modules
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
  {
    spec;
    signatures = None;
    board;
    sitemap;
    sancov;
    sancov_silent;
    blocks;
    record_in;
    syms;
    image;
    covbuf;
    mailbox_base = profile.Board.ram_base + mailbox_offset;
    mailbox_size = mailbox_bytes;
    binary_bytes = bootloader_bytes + kernel_bytes + 0x10000;
  }

let os_name t = t.spec.os_name

(* forward-declared below, after fresh_instance *)

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

let module_block t name = List.assoc_opt name t.blocks

let fresh_instance t =
  let profile = Board.profile t.board in
  let reg = Kobj.create () in
  let heap_base = profile.Board.ram_base + heap_offset in
  let heap_size = min 0x20000 (profile.Board.ram_size - heap_offset - 0x1000) in
  let heap =
    match Heap.init ~mem:(Board.ram t.board) ~base:heap_base ~size:heap_size with
    | Ok heap -> heap
    | Error e -> invalid_arg ("Osbuild.fresh_instance: kernel heap: " ^ e)
  in
  let wheel = Swtimer.create_wheel () in
  let sched = Sched.create ~reg ~wheel in
  let panic =
    {
      Panic.os_name = t.spec.os_name;
      panic_site = t.syms.sym_handle_exception;
      assert_site = t.syms.sym_assert_report;
    }
  in
  let instr name =
    match List.assoc_opt name t.blocks with
    | None -> invalid_arg (Printf.sprintf "Osbuild: no instrumentation block %S" name)
    | Some block ->
      let sancov = if t.record_in name then t.sancov else t.sancov_silent in
      Instr.of_sancov ~sancov ~block
  in
  let isr_handlers = ref [] in
  let register_isr f = isr_handlers := f :: !isr_handlers in
  let ctx =
    {
      board = t.board;
      reg;
      heap;
      sched;
      wheel;
      panic;
      instr;
      register_isr;
      os_name = t.spec.os_name;
    }
  in
  let table = t.spec.install ctx in
  Klog.line t.spec.banner;
  Klog.info ~os:t.spec.os_name
    (Printf.sprintf "%s %s booted on %s (%s)" t.spec.os_name t.spec.version
       profile.Board.name
       (Format.asprintf "%a" Arch.pp profile.Board.arch));
  let gpio = Board.gpio t.board in
  let tick () =
    (* Interrupt dispatch precedes the scheduler, as a real tick ISR
       chain would. *)
    (match Gpio.drain_pending gpio with
     | [] -> ()
     | pins ->
       List.iter (fun pin -> List.iter (fun isr -> isr pin) !isr_handlers) pins);
    Sched.tick sched
  in
  { reg; table; tick }

let api_signatures t =
  match t.signatures with
  | Some table -> table
  | None ->
    (* Build one throwaway instance under a silent handler; only the
       table's signature side is retained. *)
    let table =
      Eof_exec.Target.run_silent (fun () -> (fresh_instance t).table)
    in
    t.signatures <- Some table;
    table
