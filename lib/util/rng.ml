type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = seed }

(* SplitMix64 output function. *)
let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let next64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let seed = next64 t in
  { state = seed }

let bits t = Int64.to_int (Int64.shift_right_logical (next64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias for large bounds. *)
  if bound land (bound - 1) = 0 then bits t land (bound - 1)
  else
    let rec go () =
      let r = bits t in
      let v = r mod bound in
      if r - v + (bound - 1) < 0 then go () else v
    in
    go ()

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  if lo = hi then lo else lo + int t (hi - lo + 1)

let int64_in t lo hi =
  if Int64.compare hi lo < 0 then invalid_arg "Rng.int64_in: empty range";
  let span = Int64.sub hi lo in
  if Int64.equal span Int64.max_int then next64 t
  else
    let bound = Int64.add span 1L in
    (* Lemire-style rejection over the full 64-bit output. *)
    let rec go () =
      let r = Int64.shift_right_logical (next64 t) 1 in
      let v = Int64.rem r bound in
      if Int64.compare v 0L < 0 then go () else Int64.add lo v
    in
    go ()

let bool t = Int64.compare (next64 t) 0L < 0

let chance t p =
  if p <= 0. then false
  else if p >= 1. then true
  else
    let r = Int64.to_float (Int64.shift_right_logical (next64 t) 11) in
    r /. 9007199254740992. < p

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let bytes t n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.unsafe_set b i (Char.chr (int t 256))
  done;
  b
