type block = { name : string; base : int; count : int }

type t = { text_base : int; mutable blocks_rev : block list; mutable next_index : int }

let create ~text_base = { text_base; blocks_rev = []; next_index = 0 }

let alloc t ~name ~count =
  if count <= 0 then invalid_arg "Sitemap.alloc: count must be positive";
  if List.exists (fun b -> b.name = name) t.blocks_rev then
    invalid_arg (Printf.sprintf "Sitemap.alloc: duplicate block %s" name);
  let block = { name; base = t.text_base + (4 * t.next_index); count } in
  t.blocks_rev <- block :: t.blocks_rev;
  t.next_index <- t.next_index + count;
  block

let site_addr block i =
  if i < 0 || i >= block.count then
    invalid_arg
      (Printf.sprintf "Sitemap.site_addr: index %d out of block %s (count %d)" i block.name
         block.count);
  block.base + (4 * i)

let site_count t = t.next_index

let index_of_addr t addr =
  let off = addr - t.text_base in
  if off < 0 || off mod 4 <> 0 then None
  else
    let idx = off / 4 in
    if idx < t.next_index then Some idx else None

let blocks t = List.rev t.blocks_rev
