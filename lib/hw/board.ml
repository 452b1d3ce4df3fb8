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
}

type t = {
  profile : profile;
  flash : Flash.t;
  ram : Memory.t;
  uart : Uart.t;
  gpio : Gpio.t;
  clock : Clock.t;
  mutable table : Partition.t;
  mutable manifest : (string * int32) list;
  mutable power_cycles : int;
}

let create profile =
  let endianness = profile.arch.Arch.endianness in
  {
    profile;
    flash =
      Flash.create ~base:profile.flash_base ~size:profile.flash_size
        ~sector_size:profile.sector_size ~endianness;
    ram = Memory.create ~base:profile.ram_base ~size:profile.ram_size ~endianness;
    uart = Uart.create ();
    gpio = Gpio.create ();
    clock = Clock.create ~mhz:profile.cpu_mhz;
    table = [];
    manifest = [];
    power_cycles = 0;
  }

let profile t = t.profile

let flash t = t.flash

let ram t = t.ram

let uart t = t.uart

let gpio t = t.gpio

let clock t = t.clock

let install t image =
  Image.flash_all image t.flash;
  t.table <- image.Image.table;
  t.manifest <- Image.manifest image

let partition_table t = t.table

let corrupted_partitions t = Image.corrupted ~table:t.table ~manifest:t.manifest t.flash

let boot_ok t = t.manifest <> [] && corrupted_partitions t = []

let reflash_partition t image name =
  match Image.flash_one image t.flash name with
  | Error _ as e -> e
  | Ok () ->
    (match List.assoc_opt name (Image.manifest image) with
     | None -> Error (Printf.sprintf "image has no partition %s" name)
     | Some crc ->
       t.manifest <- (name, crc) :: List.remove_assoc name t.manifest;
       Ok ())

let snapshot t = Snapshot.capture ~ram:t.ram ~flash:t.flash ~clock:t.clock

let restore_snapshot t s = Snapshot.restore s ~clock:t.clock

let reset t =
  Memory.clear t.ram;
  Uart.reset t.uart;
  Gpio.reset t.gpio;
  (* The clock deliberately survives reset: it is the simulation's
     monotonic time base, which campaign budgets are measured against. *)
  t.power_cycles <- t.power_cycles + 1

let power_cycles t = t.power_cycles

let read_mem t ~addr ~len =
  let attempt () =
    if Memory.in_range t.ram ~addr ~len then
      Ok (Bytes.unsafe_to_string (Memory.read_bytes t.ram ~addr ~len))
    else if Memory.in_range (Flash.mem t.flash) ~addr ~len then
      Ok (Flash.read t.flash ~addr ~len)
    else
      Error
        {
          Fault.kind = Fault.Bus_fault;
          address = Some addr;
          message = Printf.sprintf "debug read of %d byte(s) hit no mapped region" len;
        }
  in
  if len < 0 then
    Error { Fault.kind = Fault.Bus_fault; address = Some addr; message = "negative length" }
  else attempt ()

let write_ram t ~addr data =
  let len = String.length data in
  if Memory.in_range t.ram ~addr ~len then begin
    Memory.write_bytes t.ram ~addr (Bytes.of_string data);
    Ok ()
  end
  else
    Error
      {
        Fault.kind = Fault.Bus_fault;
        address = Some addr;
        message = "debug write outside RAM (use flash programming for flash)";
      }

let read_counted t ~count_addr ~data_addr ~stride ~max_count ~reset =
  match read_mem t ~addr:count_addr ~len:4 with
  | Error _ as e -> e
  | Ok raw ->
    let b = Bytes.unsafe_of_string raw in
    let count =
      Int32.to_int
        (match t.profile.arch.Arch.endianness with
         | Arch.Little -> Bytes.get_int32_le b 0
         | Arch.Big -> Bytes.get_int32_be b 0)
    in
    let n = max 0 (min count max_count) in
    let data = if n = 0 then Ok "" else read_mem t ~addr:data_addr ~len:(n * stride) in
    (match data with
     | Error _ as e -> e
     | Ok data ->
       (match if reset then write_ram t ~addr:count_addr "\000\000\000\000" else Ok () with
        | Error _ as e -> e
        | Ok () -> Ok (count, data)))

let debug_port_name = function Jtag -> "JTAG" | Swd -> "SWD" | Emulated -> "emulated"
