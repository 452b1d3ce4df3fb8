open Eof_hw

type t = { mem : Memory.t; base : int; size : int; mutable locked : bool }

let header_bytes = 8

let min_alloc = 8

let min_region_bytes = header_bytes + min_alloc

let status_free = 0xFEED0000l

let status_used = 0xFEED0001l

let init ~mem ~base ~size =
  if size < min_region_bytes then
    Error
      (Printf.sprintf "heap region of %d bytes is below the %d-byte minimum" size
         min_region_bytes)
  else if base mod 8 <> 0 || size mod 8 <> 0 then
    Error "heap region must be 8-byte aligned"
  else if not (Memory.in_range mem ~addr:base ~len:size) then
    Error "heap region outside RAM"
  else begin
    let t = { mem; base; size; locked = false } in
    Memory.write_u32 mem base (Int32.of_int (size - header_bytes));
    Memory.write_u32 mem (base + 4) status_free;
    Ok t
  end

let base t = t.base

let memory t = t.mem

let size t = t.size

let read_header t addr =
  let payload = Int32.to_int (Memory.read_u32 t.mem addr) in
  let status = Memory.read_u32 t.mem (addr + 4) in
  let valid_status = Int32.equal status status_free || Int32.equal status status_used in
  if
    (not valid_status)
    || payload <= 0
    || payload mod 8 <> 0
    || addr + header_bytes + payload > t.base + t.size
  then
    Fault.mem_manage ~address:addr
      (Printf.sprintf "heap metadata corrupted (size=%d status=0x%08lx)" payload status);
  (payload, Int32.equal status status_used)

let write_header t addr ~payload ~used =
  Memory.write_u32 t.mem addr (Int32.of_int payload);
  Memory.write_u32 t.mem (addr + 4) (if used then status_used else status_free)

let iter_blocks t f =
  let rec go addr =
    if addr < t.base + t.size then begin
      let payload, used = read_header t addr in
      f ~addr ~payload ~used;
      go (addr + header_bytes + payload)
    end
  in
  go t.base

let round_up n = if n <= 0 then min_alloc else (n + 7) / 8 * 8

let alloc t n =
  let need = round_up n in
  let found = ref None in
  iter_blocks t (fun ~addr ~payload ~used ->
      if !found = None && (not used) && payload >= need then found := Some (addr, payload));
  match !found with
  | None -> None
  | Some (addr, payload) ->
    let remainder = payload - need in
    if remainder >= header_bytes + min_alloc then begin
      (* Split: the tail becomes a new free block. *)
      write_header t addr ~payload:need ~used:true;
      write_header t (addr + header_bytes + need) ~payload:(remainder - header_bytes)
        ~used:false;
      Some (addr + header_bytes)
    end
    else begin
      write_header t addr ~payload ~used:true;
      Some (addr + header_bytes)
    end

let coalesce t =
  (* One forward pass merging adjacent free blocks; repeated until no
     merge happens (at most a few passes on these small heaps). *)
  let merged = ref true in
  while !merged do
    merged := false;
    let prev_free = ref None in
    let rec go addr =
      if addr < t.base + t.size then begin
        let payload, used = read_header t addr in
        (match (!prev_free, used) with
         | Some (paddr, ppayload), false ->
           write_header t paddr ~payload:(ppayload + header_bytes + payload) ~used:false;
           merged := true
           (* restart the walk after a merge *)
         | _, false ->
           prev_free := Some (addr, payload);
           go (addr + header_bytes + payload)
         | _, true ->
           prev_free := None;
           go (addr + header_bytes + payload))
      end
    in
    go t.base
  done

let free t payload_addr =
  let header_addr = payload_addr - header_bytes in
  if header_addr < t.base || header_addr >= t.base + t.size then
    Error (Printf.sprintf "0x%08x is not inside the heap" payload_addr)
  else begin
    let found = ref `Missing in
    iter_blocks t (fun ~addr ~payload:_ ~used ->
        if addr = header_addr then found := if used then `Live else `Already_free);
    match !found with
    | `Missing -> Error (Printf.sprintf "0x%08x is not a block payload" payload_addr)
    | `Already_free -> Error (Printf.sprintf "double free of 0x%08x" payload_addr)
    | `Live ->
      let payload, _ = read_header t header_addr in
      write_header t header_addr ~payload ~used:false;
      coalesce t;
      Ok ()
  end

let lock t = if t.locked then Error `Already_locked else (t.locked <- true; Ok ())

let unlock t = t.locked <- false

let fold_blocks t f init =
  let acc = ref init in
  iter_blocks t (fun ~addr ~payload ~used -> acc := f !acc ~addr ~payload ~used);
  !acc

let used_bytes t =
  fold_blocks t (fun acc ~addr:_ ~payload ~used -> if used then acc + payload else acc) 0

let free_bytes t =
  fold_blocks t (fun acc ~addr:_ ~payload ~used -> if used then acc else acc + payload) 0

let check t =
  match
    fold_blocks t (fun acc ~addr:_ ~payload ~used:_ -> acc + header_bytes + payload) 0
  with
  | total when total = t.size -> Ok ()
  | total -> Error (Printf.sprintf "blocks cover %d of %d bytes" total t.size)
  | exception Fault.Trap f -> Error (Fault.to_string f)
