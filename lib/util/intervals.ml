(* Sorted list of disjoint half-open intervals; small N, so linear ops. *)
type t = (int * int) list

let empty = []

let overlaps t ~lo ~hi = List.exists (fun (a, b) -> lo < b && a < hi) t

let add t ~lo ~hi =
  if hi <= lo then Error (Printf.sprintf "empty interval [%d,%d)" lo hi)
  else if lo < 0 then Error (Printf.sprintf "negative interval start %d" lo)
  else if overlaps t ~lo ~hi then
    Error (Printf.sprintf "interval [0x%x,0x%x) overlaps an existing region" lo hi)
  else Ok (List.sort compare ((lo, hi) :: t))
