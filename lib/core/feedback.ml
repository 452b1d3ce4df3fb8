type t = { bitmap : Eof_util.Bitset.t }

let create ~edge_capacity = { bitmap = Eof_util.Bitset.create (max 1 edge_capacity) }

let merge_array t edges ~len =
  if len > Array.length edges then invalid_arg "Feedback.merge_array: len too large";
  let acc = ref 0 in
  for i = 0 to len - 1 do
    let e = edges.(i) in
    if e >= 0 && e < Eof_util.Bitset.capacity t.bitmap then
      if Eof_util.Bitset.add t.bitmap e then incr acc
  done;
  !acc

let union_into ~dst ~src = Eof_util.Bitset.union_into ~dst:dst.bitmap ~src:src.bitmap

let covered t = Eof_util.Bitset.count t.bitmap

let snapshot t = Eof_util.Bitset.copy t.bitmap
