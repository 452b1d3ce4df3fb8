type pool = {
  block_size : int;
  block_count : int;
  base_addr : int;
  mutable free_list : int list;
  mutable allocated : int;
}

type Kobj.payload += Pool of pool

let create_unchecked ~reg ~heap ~name ~block_size ~block_count =
  let storage = max 8 (block_size * block_count) in
  match Heap.alloc heap storage with
  | None -> Error Kerr.enomem
  | Some base_addr ->
    let pool =
      {
        block_size;
        block_count;
        base_addr;
        free_list = List.init (max 0 block_count) (fun i -> i);
        allocated = 0;
      }
    in
    Ok (Kobj.register reg ~kind:"mempool" ~name (Pool pool))

let alloc pool =
  if pool.block_size <= 0 then
    (* The zero-stride walk of the real bug: block address arithmetic
       degenerates and the pool walks off its storage. *)
    Eof_hw.Fault.usage ~address:pool.base_addr
      (Printf.sprintf "memory pool stride is %d: free-list walk diverges" pool.block_size);
  match pool.free_list with
  | [] -> Error Kerr.enomem
  | i :: rest ->
    pool.free_list <- rest;
    pool.allocated <- pool.allocated + 1;
    Ok (pool.base_addr + (i * pool.block_size))

let free_block pool addr =
  if pool.block_size <= 0 then Error Kerr.einval
  else
    let off = addr - pool.base_addr in
    if off < 0 || off mod pool.block_size <> 0 then Error Kerr.einval
    else
      let i = off / pool.block_size in
      if i >= pool.block_count || List.mem i pool.free_list then Error Kerr.einval
      else begin
        pool.free_list <- i :: pool.free_list;
        pool.allocated <- pool.allocated - 1;
        Ok ()
      end

let available pool = List.length pool.free_list

let of_obj (obj : Kobj.obj) = match obj.Kobj.payload with Pool p -> Some p | _ -> None
