type t = { bits : Bytes.t; capacity : int; mutable count : int }

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { bits = Bytes.make ((n + 7) / 8) '\000'; capacity = n; count = 0 }

let capacity t = t.capacity

let check t i =
  if i < 0 || i >= t.capacity then invalid_arg "Bitset: index out of range"

let mem t i =
  check t i;
  Char.code (Bytes.unsafe_get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set t i =
  check t i;
  let byte = Char.code (Bytes.unsafe_get t.bits (i lsr 3)) in
  let mask = 1 lsl (i land 7) in
  if byte land mask = 0 then begin
    Bytes.unsafe_set t.bits (i lsr 3) (Char.unsafe_chr (byte lor mask));
    t.count <- t.count + 1
  end

let add t i =
  let fresh = not (mem t i) in
  if fresh then set t i;
  fresh

let count t = t.count

let copy t = { bits = Bytes.copy t.bits; capacity = t.capacity; count = t.count }

let popcount_byte =
  let tbl = Array.make 256 0 in
  for i = 1 to 255 do
    tbl.(i) <- tbl.(i lsr 1) + (i land 1)
  done;
  fun c -> tbl.(Char.code c)

let union_into ~dst ~src =
  if dst.capacity <> src.capacity then invalid_arg "Bitset.union_into: capacity mismatch";
  let added = ref 0 in
  for b = 0 to Bytes.length dst.bits - 1 do
    let d = Char.code (Bytes.unsafe_get dst.bits b) in
    let s = Char.code (Bytes.unsafe_get src.bits b) in
    let merged = d lor s in
    if merged <> d then begin
      added := !added + popcount_byte (Char.unsafe_chr (merged lxor d));
      Bytes.unsafe_set dst.bits b (Char.unsafe_chr merged)
    end
  done;
  dst.count <- dst.count + !added;
  !added

let iter f t =
  for b = 0 to Bytes.length t.bits - 1 do
    let byte = Char.code (Bytes.unsafe_get t.bits b) in
    if byte <> 0 then
      for bit = 0 to 7 do
        if byte land (1 lsl bit) <> 0 then begin
          let i = (b lsl 3) lor bit in
          if i < t.capacity then f i
        end
      done
  done

let to_bytes t = Bytes.to_string t.bits

let of_bytes ~capacity s =
  if capacity < 0 then invalid_arg "Bitset.of_bytes";
  if String.length s <> (capacity + 7) / 8 then
    invalid_arg "Bitset.of_bytes: length does not match capacity";
  let bits = Bytes.of_string s in
  (* Mask stray bits past [capacity] in the last byte so [count] stays
     consistent with what [mem]/[iter] can observe. *)
  (if capacity land 7 <> 0 && Bytes.length bits > 0 then
     let last = Bytes.length bits - 1 in
     let mask = (1 lsl (capacity land 7)) - 1 in
     Bytes.set bits last (Char.chr (Char.code (Bytes.get bits last) land mask)));
  let count = ref 0 in
  Bytes.iter (fun c -> count := !count + popcount_byte c) bits;
  { bits; capacity; count = !count }

let to_list t =
  let acc = ref [] in
  iter (fun i -> acc := i :: !acc) t;
  List.rev !acc
