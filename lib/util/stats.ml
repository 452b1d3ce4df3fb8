let require_nonempty = function
  | [] -> invalid_arg "Stats: empty sample"
  | _ -> ()

let mean xs =
  require_nonempty xs;
  List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let min_max xs =
  require_nonempty xs;
  List.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (Float.infinity, Float.neg_infinity)
    xs

let stddev xs =
  require_nonempty xs;
  match xs with
  | [ _ ] -> 0.
  | _ ->
    let m = mean xs in
    let ss = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs in
    sqrt (ss /. float_of_int (List.length xs - 1))

let percentile p xs =
  require_nonempty xs;
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 1 then a.(0)
  else
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let improvement_pct ~baseline ~subject =
  if baseline = 0. then invalid_arg "Stats.improvement_pct: zero baseline";
  (subject -. baseline) /. baseline *. 100.

let fmt1 x = Printf.sprintf "%.1f" x

let fmt_pct x = Printf.sprintf "%+.2f%%" x
