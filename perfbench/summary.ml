(* Order statistics for the benchmark's samples. *)

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

(* Nearest rank: the smallest sample with at least [p]% of the samples
   at or below it. *)
let rank ~n p = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n)))

let percentile samples p =
  let a = sorted samples in
  let n = Array.length a in
  if n = 0 then invalid_arg "Summary.percentile: no samples"
  else a.(min n (rank ~n p) - 1)

let ladder = [ 99.; 90.; 50. ]

(* The highest percentile of [ladder] that still has [min_beyond]
   samples strictly above its rank, so a reported tail always rests on
   at least that many observations. *)
let tail ?(min_beyond = 10) samples =
  let n = Array.length samples in
  List.find_map
    (fun p ->
      if n - rank ~n p >= min_beyond then Some (p, percentile samples p) else None)
    ladder

(* Repetitions of one fixed-budget workload, each a list of cumulative
   stamps (payloads done, seconds) at the same payload counts. The
   estimate takes, block by block, the [p]th percentile of the block's
   duration across repetitions and accumulates them. Interference on
   the host only ever slows a block down, in bursts of a few seconds; a
   low percentile per block keeps the blocks no burst touched instead of
   averaging the bursts in. [None] when the repetitions were not
   stamped at the same payload counts. *)
let block_estimate ~p = function
  | [] -> None
  | first :: _ as runs ->
    let counts = List.map fst first in
    if not (List.for_all (fun r -> List.map fst r = counts) runs) then None
    else
      let durations r =
        Array.of_list (snd (List.fold_left_map (fun prev (_, t) -> (t, t -. prev)) 0. r))
      in
      let per_run = List.map durations runs in
      let blocks =
        List.mapi
          (fun k _ -> percentile (Array.of_list (List.map (fun d -> d.(k)) per_run)) p)
          counts
      in
      let _, cumulative = List.fold_left_map (fun acc d -> (acc +. d, acc +. d)) 0. blocks in
      Some (List.combine counts cumulative)
