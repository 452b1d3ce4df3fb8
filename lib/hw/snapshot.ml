(* Copy-on-write board snapshots.

   A capture keeps a full baseline copy of RAM and the flash backing
   store plus the generation each region was at; restore copies back
   only pages written since (see Memory's dirty tracking), so recovery
   cost is proportional to how much state the target actually changed,
   not to partition size — the Icicle/FuzzBox reset trick.

   The virtual-clock cost model mirrors that asymmetry: capture is a
   host-side bulk read charged per page of the whole device, restore
   charges a flat setup fee plus a per-dirty-page copy cost. Both
   backends (in-process native and the RSP link's OpenOCD stub) charge
   the same board clock, so CPU-time digests stay backend-invariant. *)

type region = {
  mem : Memory.t;
  baseline : Bytes.t;
  since : int;
}

type t = {
  ram : region;
  flash : region;
  flash_erase_count : int;
}

(* Cost model, in CPU cycles. At a typical 100 MHz profile a dirty page
   costs ~5 us to restore versus ~page_size us (1 us/byte) to rewrite
   over the debug link — the gap the bench section charts. *)
let save_cycles_per_page = 16

let restore_base_cycles = 4_000

let restore_cycles_per_page = 512

let capture_region mem =
  let baseline = Memory.baseline mem in
  let since = Memory.mark_generation mem in
  { mem; baseline; since }

let capture ~ram ~flash ~clock =
  let t =
    {
      ram = capture_region ram;
      flash = capture_region (Flash.mem flash);
      flash_erase_count = Flash.erase_count flash;
    }
  in
  Clock.advance clock (save_cycles_per_page * (Memory.page_count ram + Memory.page_count (Flash.mem flash)));
  t

let pages t = Memory.page_count t.ram.mem + Memory.page_count t.flash.mem

let restore_region r = Memory.restore_pages r.mem ~baseline:r.baseline ~since:r.since

let restore t ~clock =
  let ram_dirty = restore_region t.ram in
  let flash_dirty = restore_region t.flash in
  let dirty = ram_dirty + flash_dirty in
  Clock.advance clock (restore_base_cycles + (restore_cycles_per_page * dirty));
  dirty
