open Eof_util

let test_rng_determinism () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next64 a) (Rng.next64 b)
  done

let test_rng_bounds () =
  let rng = Rng.create 7L in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 10);
    let w = Rng.int_in rng (-5) 5 in
    Alcotest.(check bool) "in inclusive range" true (w >= -5 && w <= 5)
  done

let test_rng_split_independent () =
  let a = Rng.create 1L in
  let b = Rng.split a in
  let xs = List.init 10 (fun _ -> Rng.next64 a) in
  let ys = List.init 10 (fun _ -> Rng.next64 b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_bitset_basics () =
  let b = Bitset.create 100 in
  Alcotest.(check int) "empty" 0 (Bitset.count b);
  Alcotest.(check bool) "fresh add" true (Bitset.add b 7);
  Alcotest.(check bool) "repeat add" false (Bitset.add b 7);
  ignore (Bitset.add b 99 : bool);
  Alcotest.(check int) "count" 2 (Bitset.count b);
  Alcotest.(check (list int)) "to_list" [ 7; 99 ] (Bitset.to_list b);
  Alcotest.check_raises "oob" (Invalid_argument "Bitset: index out of range") (fun () ->
      ignore (Bitset.add b 100 : bool))

let test_bitset_union_diff () =
  let a = Bitset.create 64 and b = Bitset.create 64 in
  List.iter (fun i -> ignore (Bitset.add a i : bool)) [ 1 ];
  List.iter (fun i -> ignore (Bitset.add b i : bool)) [ 1; 2; 63 ];
  let added = Bitset.union_into ~dst:a ~src:b in
  Alcotest.(check int) "two new bits" 2 added;
  Alcotest.(check int) "count" 3 (Bitset.count a);
  Alcotest.(check (list int)) "union" [ 1; 2; 63 ] (Bitset.to_list a)

let test_crc32_known () =
  (* Standard test vector: CRC-32("123456789") = 0xCBF43926. *)
  Alcotest.(check int32) "vector" 0xCBF43926l (Crc32.digest_string "123456789");
  Alcotest.(check int32) "empty" 0l (Crc32.digest_string "");
  (* A range digest covers exactly its slice, as a partition CRC does. *)
  Alcotest.(check int32) "range" (Crc32.digest_string "hello")
    (Crc32.digest_bytes (Bytes.of_string "say hello world") ~pos:4 ~len:5)

let test_hex_roundtrip () =
  Alcotest.(check string) "encode" "4f4b" (Hex.encode "OK");
  Alcotest.(check (result string string)) "decode" (Ok "OK") (Hex.decode "4f4b");
  Alcotest.(check (result string string)) "decode upper" (Ok "OK") (Hex.decode "4F4B");
  (match Hex.decode "abc" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "odd length accepted");
  match Hex.decode "zz" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad digit accepted"

let test_ring_fifo () =
  let r = Ring.create 3 in
  List.iter (Ring.push r) [ 1; 2 ];
  Alcotest.(check (list int)) "drain order" [ 1; 2 ] (Ring.drain r);
  List.iter (Ring.push r) [ 1; 2; 3; 4 ];
  Alcotest.(check (list int)) "overrun evicts the oldest" [ 2; 3; 4 ] (Ring.drain r);
  Alcotest.(check (list int)) "drained" [] (Ring.drain r)

let test_stats () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.; 2.; 3. ]);
  let lo, hi = Stats.min_max [ 3.; 1.; 2. ] in
  Alcotest.(check (float 1e-9)) "min" 1. lo;
  Alcotest.(check (float 1e-9)) "max" 3. hi;
  Alcotest.(check (float 1e-9)) "p50" 2. (Stats.percentile 50. [ 1.; 2.; 3. ]);
  Alcotest.(check (float 1e-6)) "improvement" 50.
    (Stats.improvement_pct ~baseline:100. ~subject:150.);
  Alcotest.(check string) "fmt_pct" "+48.27%" (Stats.fmt_pct 48.27)

let test_intervals () =
  let add t ~lo ~hi =
    match Intervals.add t ~lo ~hi with Ok t -> t | Error e -> Alcotest.fail e
  in
  let t = add (add Intervals.empty ~lo:0 ~hi:10) ~lo:20 ~hi:30 in
  let t = add t ~lo:10 ~hi:20 in
  let rejected what ~lo ~hi =
    match Intervals.add t ~lo ~hi with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted" what
  in
  rejected "overlap" ~lo:9 ~hi:12;
  rejected "inner overlap" ~lo:5 ~hi:6;
  rejected "empty" ~lo:40 ~hi:40;
  rejected "negative" ~lo:(-4) ~hi:(-1)

let test_text_table () =
  let s =
    Text_table.render ~align:[ Text_table.Left; Text_table.Right ]
      ~header:[ "name"; "count" ]
      [ [ "alpha"; "1" ]; [ "b" ] ]
  in
  Alcotest.(check bool) "contains header" true
    (String.length s > 0 && String.index_opt s '|' <> None);
  Alcotest.(check bool) "pads short rows" true (String.length s > 40)

(* Property tests. *)
let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip" ~count:200 QCheck.string (fun s ->
      Hex.decode (Hex.encode s) = Ok s)

let prop_bitset_add_mem =
  QCheck.Test.make ~name:"bitset add implies mem" ~count:200
    QCheck.(small_list (int_bound 255))
    (fun xs ->
      let b = Bitset.create 256 in
      List.iter (fun x -> ignore (Bitset.add b x : bool)) xs;
      List.for_all (Bitset.mem b) xs && Bitset.count b = List.length (List.sort_uniq compare xs))

let prop_crc_differs =
  QCheck.Test.make ~name:"crc32 detects single-byte flip" ~count:200
    QCheck.(pair (string_of_size Gen.(1 -- 64)) small_nat)
    (fun (s, i) ->
      QCheck.assume (String.length s > 0);
      let i = i mod String.length s in
      let flipped = Bytes.of_string s in
      Bytes.set flipped i (Char.chr (Char.code (Bytes.get flipped i) lxor 0xFF));
      Crc32.digest_string s <> Crc32.digest_string (Bytes.to_string flipped))

let suite =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "bitset basics" `Quick test_bitset_basics;
    Alcotest.test_case "bitset union/diff" `Quick test_bitset_union_diff;
    Alcotest.test_case "crc32 vector" `Quick test_crc32_known;
    Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
    Alcotest.test_case "ring fifo" `Quick test_ring_fifo;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "intervals" `Quick test_intervals;
    Alcotest.test_case "text table" `Quick test_text_table;
    QCheck_alcotest.to_alcotest prop_hex_roundtrip;
    QCheck_alcotest.to_alcotest prop_bitset_add_mem;
    QCheck_alcotest.to_alcotest prop_crc_differs;
  ]

(* Additional stats sanity used by the experiment aggregation. *)
let test_stats_percentiles_edges () =
  Alcotest.(check (float 1e-9)) "p0" 1. (Stats.percentile 0. [ 3.; 1.; 2. ]);
  Alcotest.(check (float 1e-9)) "p100" 3. (Stats.percentile 100. [ 3.; 1.; 2. ]);
  Alcotest.(check (float 1e-9)) "p25 interp" 1.5 (Stats.percentile 25. [ 1.; 2.; 3. ]);
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile 101. [ 1. ]))

let prop_percentile_bounded =
  QCheck.Test.make ~name:"percentile stays within sample range" ~count:200
    QCheck.(pair (float_bound_inclusive 100.) (list_of_size Gen.(1 -- 20) (float_bound_inclusive 1000.)))
    (fun (p, xs) ->
      QCheck.assume (xs <> []);
      let v = Stats.percentile p xs in
      let lo, hi = Stats.min_max xs in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

let suite =
  suite
  @ [
      Alcotest.test_case "stats percentile edges" `Quick test_stats_percentiles_edges;
      QCheck_alcotest.to_alcotest prop_percentile_bounded;
    ]
