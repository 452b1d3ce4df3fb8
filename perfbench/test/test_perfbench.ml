(* Tests of the benchmark's own helpers, and of the promise that its
   exact metrics repeat across runs. *)

open Perfbench
module Event = Eof_obs.Obs.Event

let feq = Alcotest.float 1e-9

(* --- the percentile rule ---------------------------------------------- *)

let samples n = Array.init n (fun i -> float_of_int (i + 1))

let tail_rule () =
  let check n expected =
    Alcotest.(check (option (pair (float 0.) (float 0.))))
      (Printf.sprintf "%d samples" n) expected (Summary.tail (samples n))
  in
  (* p99 of 1000 is the 990th sample: exactly 10 beyond it. *)
  check 1000 (Some (99., 990.));
  check 999 (Some (90., 900.));
  check 100 (Some (90., 90.));
  check 20 (Some (50., 10.));
  check 19 None;
  check 0 None

let nearest_rank () =
  Alcotest.check feq "p50 nearest rank" 2. (Summary.percentile [| 4.; 1.; 3.; 2. |] 50.);
  Alcotest.check feq "p100" 4. (Summary.percentile [| 4.; 1.; 3.; 2. |] 100.)

let block_estimate () =
  (* Four repetitions of the same two blocks; the second repetition's
     first block hit interference and the lower quartile drops it. *)
  let runs =
    [
      [ (10, 1.0); (20, 2.0) ];
      [ (10, 5.0); (20, 6.0) ];
      [ (10, 1.2); (20, 2.1) ];
      [ (10, 1.1); (20, 2.4) ];
    ]
  in
  (match Summary.block_estimate ~p:25. runs with
   | Some [ (10, a); (20, b) ] ->
     Alcotest.check feq "first block" 1.0 a;
     Alcotest.check feq "both blocks" 1.9 b
   | _ -> Alcotest.fail "expected two cumulative stamps");
  (match Summary.block_estimate ~p:50. runs with
   | Some [ _; (20, b) ] -> Alcotest.check feq "medians" (1.1 +. 1.0) b
   | _ -> Alcotest.fail "expected two cumulative stamps");
  Alcotest.(check bool) "mismatched stamps" true
    (Summary.block_estimate ~p:25. [ [ (10, 1.) ]; [ (11, 1.) ] ] = None)

(* --- gap attribution --------------------------------------------------- *)

let gap_attribution () =
  let g = Gapsink.create () in
  let feed now ?board ?tenant ?(virtual_s = 0.) ev =
    Gapsink.observe g ~now ~virtual_s ~board ~tenant ev
  in
  feed 0.0 Event.Reset_board;
  feed 0.5 (Event.Stop { kind = "breakpoint"; pc = 4 });
  feed 0.6 (Event.Exchange { tx = 10; rx = 30; timeout = false });
  feed 0.9 (Event.Drain { records = 6; cmp = 0; log_bytes = 100; fused = true });
  feed 1.0 ~virtual_s:2.5 (Event.Payload { iteration = 1; status = "completed"; new_edges = 0 });
  feed 1.5 (Event.Stop { kind = "quantum"; pc = 8 });
  feed 1.75 ~board:3 ~virtual_s:9. (Event.Liveness_verdict { verdict = "pc-stalled"; pc = 8 });
  feed 2.0 (Event.Corpus_admit { new_edges = 1; size = 7 });
  feed 2.5 ~virtual_s:3. (Event.Payload { iteration = 2; status = "completed"; new_edges = 1 });
  Alcotest.(check int) "reset count" 1 (Gapsink.count g "reset");
  (* The first event closes no gap; the gap after a reset is the boot. *)
  Alcotest.check feq "reset closes nothing" 0. (Gapsink.closed_s g "reset");
  Alcotest.check feq "boot follows reset" 0.5 (Gapsink.opened_s g "reset");
  Alcotest.check feq "breakpoint stop" 0.5 (Gapsink.closed_s g "stop.breakpoint");
  Alcotest.check feq "exchange" 0.1 (Gapsink.closed_s g "exchange");
  Alcotest.check feq "drain" 0.3 (Gapsink.closed_s g "drain");
  Alcotest.check feq "quantum" 0.5 (Gapsink.closed_s g "stop.quantum");
  Alcotest.check feq "verdict" 0.25 (Gapsink.closed_s g "liveness.pc-stalled");
  let stops, stop_s = Gapsink.total g ~prefix:"stop." in
  Alcotest.(check int) "stops" 2 stops;
  Alcotest.check feq "stop seconds" 1.0 stop_s;
  Alcotest.(check int) "log bytes" 100 (Gapsink.log_bytes g);
  Alcotest.(check int) "corpus size" 7 (Gapsink.corpus_size g);
  (* The boarded verdict's per-board clock is not the fleet clock. *)
  Alcotest.check feq "virtual clock" 3. (Gapsink.max_virtual_s g);
  Alcotest.(check (array (float 1e-9))) "payload gaps" [| 1.5 |] (Gapsink.payload_gaps g)

(* --- failure accounting and the result line ---------------------------- *)

let failure_accounting () =
  let t = Metric.tally () in
  Metric.attempt t 100;
  Metric.check t ~payloads:100 true "never reported";
  Alcotest.(check bool) "clean" true (Metric.correct t);
  Metric.fail t ~payloads:3 "three payloads lost";
  Metric.check t ~payloads:0 false "a check with no payloads";
  Alcotest.(check bool) "failed" false (Metric.correct t);
  Alcotest.(check int) "failed payloads" 3 t.Metric.failed;
  Alcotest.(check (list string)) "reasons" [ "a check with no payloads"; "three payloads lost" ]
    t.Metric.reasons;
  let line = Metric.result_line t [ Metric.make "payloads_per_s" 1.5 "1/s" Metric.Wall ] in
  Alcotest.(check string) "result line"
    "{\"correct\": false, \"attempted\": 100, \"failed\": 3, \"metrics\": {\"payloads_per_s\": \
     {\"value\": 1.5, \"unit\": \"1/s\"}}}"
    line

let metric_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Metric.valid_name n))
    [ "setup_s"; "campaign.step_p99_us"; "gc.minor_words_per_payload"; "9lives"; "a-b" ];
  List.iter
    (fun n -> Alcotest.(check bool) (Printf.sprintf "%S" n) false (Metric.valid_name n))
    [ ""; ".hidden"; "_x"; "a b"; "a/b"; "ünits"; String.make 65 'a' ];
  Alcotest.(check bool) "64 chars" true (Metric.valid_name (String.make 64 'a'));
  List.iter
    (fun u -> Alcotest.(check bool) u true (Metric.valid_unit u))
    [ "ms"; "1/s"; "%"; "count" ];
  Alcotest.(check bool) "unit with space" false (Metric.valid_unit "per s");
  Alcotest.check_raises "non-finite value"
    (Invalid_argument "Metric.make: x is not finite") (fun () ->
      ignore (Metric.make "x" Float.nan "s" Metric.Wall))

(* --- exact metrics repeat ---------------------------------------------- *)

(* Runs the benchmark executable and returns its table as
   (name, value, clock) triples plus the result line. *)
let run_bench args =
  let ic = Unix.open_process_args_in "../main.exe" (Array.of_list ("../main.exe" :: args)) in
  let rec read acc = match input_line ic with l -> read (l :: acc) | exception End_of_file -> acc in
  let lines = List.rev (read []) in
  (match Unix.close_process_in ic with
   | Unix.WEXITED 0 -> ()
   | _ -> Alcotest.fail ("benchmark failed: " ^ String.concat " " args));
  let rows =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l |> List.filter (( <> ) "") with
        | [ name; value; _unit; clock ] when l.[0] <> '#' && l.[0] <> '{' ->
          Some (name, value, clock)
        | _ -> None)
      lines
  in
  (rows, List.nth lines (List.length lines - 1))

let exact_rows rows = List.filter (fun (_, _, clock) -> clock = "exact") rows

let exact_metrics_repeat () =
  List.iter
    (fun (trace, seed_a, seed_b) ->
      let args seed =
        [ "--workload"; "fresh-native"; "--seconds"; "1"; "--trace"; trace; "--seed"; seed ]
      in
      let rows_a, result_a = run_bench (args seed_a) in
      let rows_b, _ = run_bench (args seed_b) in
      Alcotest.(check bool) ("correct: " ^ result_a) true
        (String.starts_with ~prefix:"{\"correct\": true, " result_a);
      Alcotest.(check bool) "has exact metrics" true (List.length (exact_rows rows_a) >= 3);
      Alcotest.(check (list (triple string string string)))
        ("exact metrics, trace " ^ trace) (exact_rows rows_a) (exact_rows rows_b))
    [ ("0", "1", "2"); ("1", "3", "4") ]

let () =
  Alcotest.run "perfbench"
    [
      ( "summary",
        [
          Alcotest.test_case "tail percentile rule" `Quick tail_rule;
          Alcotest.test_case "nearest-rank percentile" `Quick nearest_rank;
          Alcotest.test_case "block estimate" `Quick block_estimate;
        ] );
      ("gapsink", [ Alcotest.test_case "gap attribution" `Quick gap_attribution ]);
      ( "metric",
        [
          Alcotest.test_case "failure accounting" `Quick failure_accounting;
          Alcotest.test_case "metric names" `Quick metric_names;
        ] );
      ("exact", [ Alcotest.test_case "two runs agree" `Slow exact_metrics_repeat ]);
    ]
