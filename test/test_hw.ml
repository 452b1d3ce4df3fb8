open Eof_hw

let trap =
  Alcotest.testable
    (fun ppf f -> Format.pp_print_string ppf (Fault.to_string f))
    (fun a b -> a.Fault.kind = b.Fault.kind)

(* A one-byte store. *)
let poke m addr v = Memory.fill m ~addr ~len:1 (Char.chr v)

let mem_le () = Memory.create ~base:0x2000_0000 ~size:4096 ~endianness:Arch.Little

let test_memory_rw () =
  let m = mem_le () in
  poke m 0x2000_0000 0xAB;
  Alcotest.(check int) "u8" 0xAB (Memory.read_u8 m 0x2000_0000);
  Memory.write_u32 m 0x2000_0020 0xDEADBEEFl;
  Alcotest.(check int32) "u32" 0xDEADBEEFl (Memory.read_u32 m 0x2000_0020);
  Alcotest.(check int) "u32 lo byte first" 0xEF (Memory.read_u8 m 0x2000_0020)

let test_memory_big_endian () =
  let m = Memory.create ~base:0 ~size:64 ~endianness:Arch.Big in
  Memory.write_u32 m 4 0x01020304l;
  Alcotest.(check int) "be msb" 0x01 (Memory.read_u8 m 4);
  Alcotest.(check int32) "be read back" 0x01020304l (Memory.read_u32 m 4)

let test_memory_bus_fault () =
  let m = mem_le () in
  (try
     ignore (Memory.read_u8 m 0x1000_0000 : int);
     Alcotest.fail "no fault"
   with Fault.Trap f -> Alcotest.(check bool) "bus" true (f.Fault.kind = Fault.Bus_fault));
  try
    Memory.write_u32 m 0x2000_0FFE 0l;
    Alcotest.fail "straddle accepted"
  with Fault.Trap _ -> ()

let test_memory_bulk () =
  let m = mem_le () in
  Memory.write_bytes m ~addr:0x2000_0100 (Bytes.of_string "hello");
  Alcotest.(check string) "read back" "hello"
    (Bytes.to_string (Memory.read_bytes m ~addr:0x2000_0100 ~len:5));
  Memory.fill m ~addr:0x2000_0100 ~len:5 'x';
  Alcotest.(check string) "filled" "xxxxx"
    (Bytes.to_string (Memory.read_bytes m ~addr:0x2000_0100 ~len:5))

let test_flash_program_semantics () =
  let f = Flash.create ~base:0 ~size:8192 ~sector_size:4096 ~endianness:Arch.Little in
  Alcotest.(check string) "erased" "\xFF\xFF" (Flash.read f ~addr:0 ~len:2);
  Flash.program f ~addr:0 "\x0F";
  Alcotest.(check string) "programmed" "\x0F" (Flash.read f ~addr:0 ~len:1);
  (* Programming can only clear bits. *)
  Flash.program f ~addr:0 "\xF0";
  Alcotest.(check string) "AND semantics" "\x00" (Flash.read f ~addr:0 ~len:1);
  Flash.erase_range f ~addr:0 ~len:1;
  Alcotest.(check string) "re-erased" "\xFF" (Flash.read f ~addr:0 ~len:1);
  Alcotest.(check int) "erase count" 1 (Flash.erase_count f)

let test_flash_write_image () =
  let f = Flash.create ~base:0 ~size:8192 ~sector_size:4096 ~endianness:Arch.Little in
  Flash.program f ~addr:100 "\x00\x00";
  Flash.write_image f ~addr:0 "fresh image bytes";
  Alcotest.(check string) "image readable" "fresh image bytes" (Flash.read f ~addr:0 ~len:17);
  (* write_image must erase first, so previously-cleared bits recover. *)
  Alcotest.(check string) "tail erased" "\xFF" (Flash.read f ~addr:100 ~len:1)

let test_partition_validation () =
  let bad overlap =
    Partition.validate ~flash_size:0x4000
      [
        { Partition.name = "a"; offset = 0; size = 0x2000 };
        { Partition.name = "b"; offset = (if overlap then 0x1000 else 0x2000); size = 0x1000 };
      ]
  in
  (match bad true with Error _ -> () | Ok () -> Alcotest.fail "overlap accepted");
  (match bad false with Ok () -> () | Error e -> Alcotest.fail e);
  match
    Partition.validate ~flash_size:0x1000
      [ { Partition.name = "x"; offset = 0; size = 0x2000 } ]
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "oversize accepted"

let test_uart_lines () =
  let u = Uart.create () in
  Uart.write_string u "hello\nwor";
  Alcotest.(check string) "first drain" "hello\nwor" (Uart.drain u);
  Uart.write_string u "ld\n";
  Alcotest.(check string) "drain takes only new bytes" "ld\n" (Uart.drain u);
  Alcotest.(check string) "empty after drain" "" (Uart.drain u)

let test_uart_overrun () =
  let u = Uart.create ~fifo_bytes:4 () in
  Uart.write_string u "abcdef";
  Alcotest.(check string) "newest kept" "cdef" (Uart.drain u)

(* The byte ring behind the FIFO: order, drop-oldest overrun, and
   pending bytes that wrap past the end of the buffer. *)
let test_uart_ring_fifo () =
  let u = Uart.create ~fifo_bytes:4 () in
  Uart.write_string u "ab";
  Alcotest.(check string) "drain order" "ab" (Uart.drain u);
  Uart.write_string u "ab";
  Uart.write_string u "c";
  Uart.write_string u "de";
  Alcotest.(check string) "overrun evicts the oldest" "bcde" (Uart.drain u);
  Alcotest.(check string) "drained" "" (Uart.drain u);
  Uart.write_string u "xyz";
  ignore (Uart.drain u : string);
  Uart.write_string u "123";
  Alcotest.(check string) "drain wraps across the buffer end" "123" (Uart.drain u);
  Uart.write_string u "pq";
  Uart.write_string u "rstuvw";
  Alcotest.(check string) "overlong write keeps its tail" "tuvw" (Uart.drain u);
  Uart.write_string u "k";
  Uart.reset u;
  Alcotest.(check string) "reset empties" "" (Uart.drain u);
  Uart.write_string u "after";
  Alcotest.(check string) "usable after reset" "fter" (Uart.drain u)

let test_clock () =
  let c = Clock.create ~mhz:100 in
  Clock.advance c 1000;
  Alcotest.(check (float 1e-12)) "s" 1e-5 (Clock.now_s c);
  Alcotest.check_raises "negative" (Invalid_argument "Clock.advance: negative") (fun () ->
      Clock.advance c (-1))

let test_image_and_board () =
  let profile = Profiles.stm32f4_disco in
  let board = Board.create profile in
  let table =
    [
      { Partition.name = "bootloader"; offset = 0; size = 0x4000 };
      { Partition.name = "kernel"; offset = 0x4000; size = 0x8000 };
    ]
  in
  let image = Image.synthesize ~table ~seed:5L () in
  Board.install board image;
  Alcotest.(check bool) "boots" true (Board.boot_ok board);
  (* Corrupt the kernel partition. *)
  Flash.corrupt (Board.flash board) ~addr:(profile.Board.flash_base + 0x5000) "junk";
  Alcotest.(check bool) "corrupted" false (Board.boot_ok board);
  Board.install board image;
  Alcotest.(check bool) "recovered" true (Board.boot_ok board)

let test_board_mem_dispatch () =
  let board = Board.create Profiles.stm32f4_disco in
  let p = Board.profile board in
  (match Board.write_ram board ~addr:p.Board.ram_base "hi" with
   | Ok () -> ()
   | Error f -> Alcotest.fail (Fault.to_string f));
  (match Board.read_mem board ~addr:p.Board.ram_base ~len:2 with
   | Ok s -> Alcotest.(check string) "ram rw" "hi" s
   | Error f -> Alcotest.fail (Fault.to_string f));
  (match Board.read_mem board ~addr:p.Board.flash_base ~len:4 with
   | Ok _ -> ()
   | Error f -> Alcotest.fail (Fault.to_string f));
  (match Board.write_ram board ~addr:p.Board.flash_base "no" with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "flash writable via debug write");
  match Board.read_mem board ~addr:0x1 ~len:4 with
  | Error f -> Alcotest.check trap "unmapped" { Fault.kind = Fault.Bus_fault; address = None; message = "" } f
  | Ok _ -> Alcotest.fail "unmapped readable"

let test_board_reset_keeps_clock () =
  let board = Board.create Profiles.stm32f4_disco in
  Clock.advance (Board.clock board) 500;
  Board.reset board;
  Alcotest.(check int64) "clock survives" 500L (Clock.cycles (Board.clock board));
  Alcotest.(check int) "power cycles" 1 (Board.power_cycles board)

let prop_image_verify_detects_corruption =
  QCheck.Test.make ~name:"image verify detects any flash corruption" ~count:50
    QCheck.(pair small_nat (string_of_size Gen.(1 -- 8)))
    (fun (off, junk) ->
      let table = [ { Partition.name = "k"; offset = 0; size = 0x4000 } ] in
      let image = Image.synthesize ~table ~seed:9L () in
      let flash = Flash.create ~base:0 ~size:0x4000 ~sector_size:0x1000 ~endianness:Arch.Little in
      Image.flash_all image flash;
      let off = off mod (0x4000 - String.length junk) in
      let before = Flash.read flash ~addr:off ~len:(String.length junk) in
      Flash.corrupt flash ~addr:off junk;
      let changed = before <> junk in
      let detected =
        Image.corrupted ~table ~manifest:(Image.manifest image) flash <> []
      in
      (not changed) || detected)

let suite =
  [
    Alcotest.test_case "memory rw" `Quick test_memory_rw;
    Alcotest.test_case "memory big-endian" `Quick test_memory_big_endian;
    Alcotest.test_case "memory bus fault" `Quick test_memory_bus_fault;
    Alcotest.test_case "memory bulk" `Quick test_memory_bulk;
    Alcotest.test_case "flash program semantics" `Quick test_flash_program_semantics;
    Alcotest.test_case "flash write_image" `Quick test_flash_write_image;
    Alcotest.test_case "partition validation" `Quick test_partition_validation;
    Alcotest.test_case "uart lines" `Quick test_uart_lines;
    Alcotest.test_case "uart overrun" `Quick test_uart_overrun;
    Alcotest.test_case "uart ring fifo" `Quick test_uart_ring_fifo;
    Alcotest.test_case "clock" `Quick test_clock;
    Alcotest.test_case "image install/verify/reflash" `Quick test_image_and_board;
    Alcotest.test_case "board memory dispatch" `Quick test_board_mem_dispatch;
    Alcotest.test_case "board reset keeps clock" `Quick test_board_reset_keeps_clock;
    QCheck_alcotest.to_alcotest prop_image_verify_detects_corruption;
  ]

let test_gpio_edges () =
  let g = Gpio.create () in
  (match Gpio.configure_irq g ~pin:3 Gpio.Rising with Ok () -> () | Error e -> Alcotest.fail e);
  (* Low -> low: no edge. *)
  ignore (Gpio.set_level g ~pin:3 ~level:false : (unit, string) result);
  Alcotest.(check (list int)) "no edge" [] (Gpio.drain_pending g);
  (* Rising edge latches; falling is not armed. *)
  ignore (Gpio.set_level g ~pin:3 ~level:true : (unit, string) result);
  ignore (Gpio.set_level g ~pin:3 ~level:false : (unit, string) result);
  Alcotest.(check (list int)) "drain" [ 3 ] (Gpio.drain_pending g);
  Alcotest.(check (list int)) "cleared" [] (Gpio.drain_pending g);
  (* Both-edge pin. *)
  ignore (Gpio.configure_irq g ~pin:5 Gpio.Both : (unit, string) result);
  ignore (Gpio.set_level g ~pin:5 ~level:true : (unit, string) result);
  ignore (Gpio.set_level g ~pin:5 ~level:false : (unit, string) result);
  Alcotest.(check (list int)) "both edges coalesce per pin" [ 5 ] (Gpio.drain_pending g);
  (* Unarmed pins never latch. *)
  ignore (Gpio.set_level g ~pin:7 ~level:true : (unit, string) result);
  Alcotest.(check (list int)) "unarmed" [] (Gpio.drain_pending g);
  (match Gpio.set_level g ~pin:99 ~level:true with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "bad pin accepted");
  Gpio.reset g;
  Alcotest.(check bool) "reset clears level" false (Gpio.level g ~pin:3)

let suite = suite @ [ Alcotest.test_case "gpio edges" `Quick test_gpio_edges ]

(* --- copy-on-write snapshots -------------------------------------------- *)

let test_memory_dirty_pages () =
  let m = mem_le () in
  (* 4096 bytes = 16 device pages of 256 *)
  poke m 0x2000_0000 0x11;
  (* pre-capture write: part of the baseline, not of the dirty set *)
  let baseline = Memory.baseline m in
  let since = Memory.mark_generation m in
  poke m 0x2000_0100 0xAA;
  poke m 0x2000_0300 0xBB;
  Memory.write_u32 m 0x2000_0F00 0xDEADBEEFl;
  poke m 0x2000_0101 0xCC;
  Alcotest.(check int) "restore copies exactly the dirty pages, each once" 3
    (Memory.restore_pages m ~baseline ~since);
  Alcotest.(check int) "dirty content rewound" 0 (Memory.read_u8 m 0x2000_0100);
  Alcotest.(check int) "pre-capture write survives" 0x11
    (Memory.read_u8 m 0x2000_0000);
  Alcotest.(check int) "second restore copies nothing" 0
    (Memory.restore_pages m ~baseline ~since)

let test_memory_clear_dirty () =
  let m = mem_le () in
  poke m 0x2000_0200 0x55;
  let baseline = Memory.baseline m in
  let since = Memory.mark_generation m in
  poke m 0x2000_0500 0x66;
  Memory.clear m;
  (* clear zeroes only maybe-nonzero pages and stamps just those dirty —
     the pre-capture page 2 (whose baseline content clear destroyed) and
     the post-capture page 5, never the other 14. *)
  Alcotest.(check int) "clear dirties only written pages" 2
    (Memory.restore_pages m ~baseline ~since);
  Alcotest.(check int) "pre-capture content back" 0x55
    (Memory.read_u8 m 0x2000_0200);
  Alcotest.(check int) "post-capture page pristine" 0
    (Memory.read_u8 m 0x2000_0500)

let test_board_snapshot_roundtrip () =
  let profile = Profiles.stm32f4_disco in
  let board = Board.create profile in
  let table = [ { Partition.name = "kernel"; offset = 0; size = 0x4000 } ] in
  let image = Image.synthesize ~table ~seed:7L () in
  Board.install board image;
  let before = Clock.cycles (Board.clock board) in
  let snap = Board.snapshot board in
  Alcotest.(check int64) "save cost covers every device page"
    (Int64.of_int (Snapshot.pages snap * 16))
    (Int64.sub (Clock.cycles (Board.clock board)) before);
  (* Scribble over RAM and flash, breaking the installed image. *)
  (match Board.write_ram board ~addr:profile.Board.ram_base "scribble" with
   | Ok () -> ()
   | Error f -> Alcotest.fail (Fault.to_string f));
  Flash.corrupt (Board.flash board) ~addr:(profile.Board.flash_base + 0x100) "junk";
  Alcotest.(check bool) "image broken" false (Board.boot_ok board);
  let before = Clock.cycles (Board.clock board) in
  let dirty = Board.restore_snapshot board snap in
  Alcotest.(check bool) "some pages dirty" true (dirty > 0);
  Alcotest.(check bool) "far fewer than the board total" true
    (dirty < Snapshot.pages snap / 4);
  Alcotest.(check int64) "restore cost is O(dirty pages)"
    (Int64.of_int
       (4_000 + (dirty * 512)))
    (Int64.sub (Clock.cycles (Board.clock board)) before);
  Alcotest.(check bool) "image pristine again" true (Board.boot_ok board);
  match Board.read_mem board ~addr:profile.Board.ram_base ~len:8 with
  | Ok s -> Alcotest.(check string) "ram rewound" (String.make 8 '\000') s
  | Error f -> Alcotest.fail (Fault.to_string f)

let suite =
  suite
  @ [
      Alcotest.test_case "memory dirty-page accounting" `Quick test_memory_dirty_pages;
      Alcotest.test_case "memory clear keeps dirty set small" `Quick
        test_memory_clear_dirty;
      Alcotest.test_case "board snapshot roundtrip" `Quick test_board_snapshot_roundtrip;
    ]

(* --- dirty-page lists vs a full scan ------------------------------------ *)

(* The reference model: a region's bookkeeping with restore and clear as
   full scans over every page stamp and flag, which Memory's dirty-page
   lists must reproduce. *)
module Scan = struct
  type t = {
    data : Bytes.t;
    stamps : int array;
    nz : Bytes.t;
    mutable generation : int;
    mutable mutations : int;
  }

  let create size =
    let n = (size + Memory.page_size - 1) / Memory.page_size in
    { data = Bytes.make size '\000'; stamps = Array.make n 0; nz = Bytes.make n '\000';
      generation = 1; mutations = 0 }

  let page_len t p = min Memory.page_size (Bytes.length t.data - (p * Memory.page_size))

  let touch t off len =
    if len > 0 then begin
      t.mutations <- t.mutations + 1;
      for p = off / Memory.page_size to (off + len - 1) / Memory.page_size do
        t.stamps.(p) <- t.generation;
        Bytes.set t.nz p '\001'
      done
    end

  let write_bytes t off b =
    touch t off (Bytes.length b);
    Bytes.blit b 0 t.data off (Bytes.length b)

  let fill t off len c =
    touch t off len;
    Bytes.fill t.data off len c

  let clear t =
    Array.iteri
      (fun p _ ->
        if Bytes.get t.nz p <> '\000' then begin
          Bytes.fill t.data (p * Memory.page_size) (page_len t p) '\000';
          t.mutations <- t.mutations + 1;
          t.stamps.(p) <- t.generation;
          Bytes.set t.nz p '\000'
        end)
      t.stamps

  let mark_generation t =
    let g = t.generation in
    t.generation <- g + 1;
    g

  let restore_pages t ~baseline ~since =
    let copied = ref 0 in
    Array.iteri
      (fun p stamp ->
        if stamp > since then begin
          let off = p * Memory.page_size in
          Bytes.blit baseline off t.data off (page_len t p);
          t.mutations <- t.mutations + 1;
          t.stamps.(p) <- since;
          Bytes.set t.nz p '\001';
          incr copied
        end)
      t.stamps;
    !copied
end

(* Random write/fill/clear/capture/restore sequences on [size] bytes:
   after every step the mutation counts agree, every restore copies as
   many pages as the full scan, and the contents agree (after every step
   on [check_every_step] regions, at the end otherwise). *)
let prop_page_lists_match_scan ~name ~size ~max_len ~count ~check_every_step =
  QCheck.Test.make ~name ~count
    QCheck.(list_of_size Gen.(1 -- 40)
              (triple (int_bound 5) (int_bound (size - 1)) (int_bound max_len)))
    (fun ops ->
      let base = 0x2000_0000 in
      let m = Memory.create ~base ~size ~endianness:Arch.Little in
      let r = Scan.create size in
      let capture () = (Memory.baseline m, Memory.mark_generation m, Scan.mark_generation r) in
      let snap = ref (capture ()) in
      let same_contents () =
        Bytes.equal (Memory.read_bytes m ~addr:base ~len:size) r.Scan.data
      in
      let step (op, off, v) =
        let len = min v (size - off) in
        let c = Char.chr (v land 0xff) in
        match op with
        | 0 when off + 4 <= size ->
          let w = Int32.of_int (v * 0x01010101) in
          Memory.write_u32 m (base + off) w;
          let b = Bytes.create 4 in
          Bytes.set_int32_le b 0 w;
          Scan.write_bytes r off b;
          true
        | 0 | 1 ->
          let b = Bytes.make len c in
          Memory.write_bytes m ~addr:(base + off) b;
          Scan.write_bytes r off b;
          true
        | 2 ->
          Memory.fill m ~addr:(base + off) ~len c;
          Scan.fill r off len c;
          true
        | 3 ->
          Memory.clear m;
          Scan.clear r;
          true
        | 4 ->
          snap := capture ();
          true
        | _ ->
          let baseline, since, scan_since = !snap in
          let copied = Memory.restore_pages m ~baseline ~since in
          copied = Scan.restore_pages r ~baseline ~since:scan_since
      in
      List.for_all
        (fun op ->
          step op
          && Memory.mutations m = r.Scan.mutations
          && ((not check_every_step) || same_contents ()))
        ops
      && same_contents ())

(* Only the latest capture is restorable: the stamp list forgets what
   an older one would need. *)
let test_superseded_capture_rejected () =
  let m = mem_le () in
  let baseline = Memory.baseline m in
  let since = Memory.mark_generation m in
  poke m 0x2000_0100 1;
  ignore (Memory.mark_generation m : int);
  Alcotest.check_raises "older capture"
    (Invalid_argument "Memory.restore_pages: a later capture superseded this one")
    (fun () -> ignore (Memory.restore_pages m ~baseline ~since : int))

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest
        (prop_page_lists_match_scan ~name:"page lists match a full scan (3000 B)" ~size:3000
           ~max_len:700 ~count:300 ~check_every_step:true);
      QCheck_alcotest.to_alcotest
        (prop_page_lists_match_scan ~name:"page lists match a full scan (4 MiB)"
           ~size:(4 * 1024 * 1024) ~max_len:4096 ~count:50 ~check_every_step:false);
      Alcotest.test_case "restoring a superseded capture is an error" `Quick
        test_superseded_capture_rejected;
    ]

(* --- boot-CRC memo ------------------------------------------------------ *)

let boot_table =
  [
    { Partition.name = "bootloader"; offset = 0; size = 0x4000 };
    { Partition.name = "kernel"; offset = 0x4000; size = 0x8000 };
  ]

let boot_image = Image.synthesize ~table:boot_table ~seed:5L ()

let reflash_corrupted board = Board.install board boot_image

(* Every way flash bytes can change must invalidate the memoized boot
   CRCs. Each case prepares on a blank board (before install) and
   returns the mutation to apply to the installed, verified image. *)
let flash_mutators : (string * (Board.t -> Board.t -> unit)) list =
  let kernel board = (Board.profile board).Board.flash_base + 0x5000 in
  let mem board = Flash.mem (Board.flash board) in
  let now f _ board = f board in
  [
    ("write_u32", now (fun b -> Memory.write_u32 (mem b) (kernel b)
                                  (Int32.lognot (Memory.read_u32 (mem b) (kernel b)))));
    ("write_bytes", now (fun b -> Memory.write_bytes (mem b) ~addr:(kernel b)
                                    (Bytes.of_string "\x00\x11\x22\x33\x44")));
    ("fill", now (fun b -> Memory.fill (mem b) ~addr:(kernel b) ~len:64 'x'));
    ("erase_range", now (fun b -> Flash.erase_range (Board.flash b) ~addr:(kernel b) ~len:1));
    ("program", now (fun b -> Flash.program (Board.flash b) ~addr:(kernel b) "\x00\x00\x00\x00"));
    ("write_image", now (fun b -> Flash.write_image (Board.flash b) ~addr:(kernel b) "junk"));
    ("corrupt", now (fun b -> Flash.corrupt (Board.flash b) ~addr:(kernel b) "junk"));
    ( "restore_pages",
      (* A snapshot of the erased device: restoring it rewinds every
         page the install programmed. *)
      fun blank ->
        let snap = Board.snapshot blank in
        fun b -> ignore (Board.restore_snapshot b snap : int) );
  ]

let test_boot_crc_invalidated_by_every_mutator () =
  List.iter
    (fun (name, prepare) ->
      let board = Board.create Profiles.stm32f4_disco in
      let mutate = prepare board in
      Board.install board boot_image;
      Alcotest.(check bool) (name ^ ": boots") true (Board.boot_ok board);
      Alcotest.(check bool) (name ^ ": boots again (memo hit)") true (Board.boot_ok board);
      mutate board;
      Alcotest.(check bool) (name ^ ": refuses after mutation") false (Board.boot_ok board);
      reflash_corrupted board;
      Alcotest.(check bool) (name ^ ": boots after reflash") true (Board.boot_ok board))
    flash_mutators

(* Restore rewinds page stamps to the capture generation; a memo keyed on
   stamps would take the restored (corrupted) pages for the clean ones it
   CRC'd after the reflash. *)
let test_boot_crc_stamp_rewind () =
  let board = Board.create Profiles.stm32f4_disco in
  Board.install board boot_image;
  let kernel = (Board.profile board).Board.flash_base + 0x5000 in
  Flash.corrupt (Board.flash board) ~addr:kernel "junk";
  let snap = Board.snapshot board in
  Alcotest.(check bool) "corrupted image refused" false (Board.boot_ok board);
  reflash_corrupted board;
  Alcotest.(check bool) "reflashed image boots" true (Board.boot_ok board);
  Alcotest.(check bool) "memoized verdict" true (Board.boot_ok board);
  Alcotest.(check bool) "restore copied pages" true (Board.restore_snapshot board snap > 0);
  Alcotest.(check bool) "restored corruption refused" false (Board.boot_ok board)

(* Random interleavings of every mutator with CRC queries over a few
   recurring ranges (so memo hits happen) and arbitrary ones. *)
let prop_crc_memo_matches_fresh =
  let size = 0x2000 and sector = 0x800 in
  let ranges = [| (0, size); (0x100, 0x300); (sector, sector); (0x7F0, 0x20) |] in
  QCheck.Test.make ~name:"memoized flash CRC equals a fresh CRC" ~count:200
    QCheck.(list_of_size Gen.(1 -- 40) (triple (int_bound 9) (int_bound (size - 1)) (int_bound 255)))
    (fun ops ->
      let flash = Flash.create ~base:0 ~size ~sector_size:sector ~endianness:Arch.Little in
      let mem = Flash.mem flash in
      let baseline = ref (Memory.baseline mem) and since = ref (Memory.mark_generation mem) in
      let fresh ~addr ~len = Eof_util.Crc32.digest_string (Flash.read flash ~addr ~len) in
      List.for_all
        (fun (op, off, v) ->
          let clamp len = min len (size - off) in
          match op with
          | 0 -> poke mem off v; true
          | 1 -> Memory.fill mem ~addr:off ~len:(clamp 40) (Char.chr v); true
          | 2 -> Flash.erase_range flash ~addr:off ~len:1; true
          | 3 -> Flash.program flash ~addr:off (String.make (clamp 3) (Char.chr v)); true
          | 4 -> Flash.corrupt flash ~addr:off (String.make (clamp 2) (Char.chr v)); true
          | 5 ->
            baseline := Memory.baseline mem;
            since := Memory.mark_generation mem;
            true
          | 6 ->
            ignore (Memory.restore_pages mem ~baseline:!baseline ~since:!since : int);
            true
          | 7 ->
            let len = clamp (1 + v) in
            Int32.equal (Flash.crc_range flash ~addr:off ~len) (fresh ~addr:off ~len)
          | _ ->
            let addr, len = ranges.(v mod Array.length ranges) in
            Int32.equal (Flash.crc_range flash ~addr ~len) (fresh ~addr ~len))
        ops
      && Array.for_all
           (fun (addr, len) -> Int32.equal (Flash.crc_range flash ~addr ~len) (fresh ~addr ~len))
           ranges)

let suite =
  suite
  @ [
      Alcotest.test_case "boot CRC memo invalidated by every flash mutator" `Quick
        test_boot_crc_invalidated_by_every_mutator;
      Alcotest.test_case "boot CRC memo sees through stamp rewind" `Quick
        test_boot_crc_stamp_rewind;
      QCheck_alcotest.to_alcotest prop_crc_memo_matches_fresh;
    ]
