open Eof_os
module Campaign = Eof_core.Campaign
module Farm = Eof_core.Farm
module Corpus = Eof_core.Corpus
module Prog = Eof_core.Prog
module Crash = Eof_core.Crash
module Bitset = Eof_util.Bitset

let mk_build _board =
  Osbuild.make ~board_profile:Eof_hw.Profiles.stm32f4_disco Zephyr.spec

(* --- the refactor contract: run = init; step*; finish ------------------- *)

let test_step_loop_equals_run () =
  let config = { Campaign.default_config with iterations = 120; seed = 99L } in
  let via_run =
    match Campaign.run config (mk_build 0) with
    | Ok o -> o
    | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)
  in
  let via_steps =
    match Campaign.init config (mk_build 0) with
    | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)
    | Ok st ->
      let steps = ref 0 in
      while not (Campaign.finished st) do
        Campaign.step st;
        incr steps
      done;
      Alcotest.(check int) "one step per iteration" 120 !steps;
      Campaign.finish st
  in
  (* Polymorphic equality over the whole outcome record: coverage,
     bitmap bytes, series (floats included), crashes, every counter. *)
  Alcotest.(check bool) "bit-identical outcome" true (via_run = via_steps)

(* --- boards:1 must be the plain campaign, bit for bit ------------------- *)

let test_one_board_farm_equals_campaign () =
  let base = { Campaign.default_config with iterations = 150; seed = 21L } in
  let farm =
    match Farm.run { Farm.boards = 1; sync_every = 25; base } mk_build with
    | Ok o -> o
    | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)
  in
  let solo =
    match Campaign.run base (mk_build 0) with
    | Ok o -> o
    | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)
  in
  Alcotest.(check bool) "board outcome bit-identical" true (farm.Farm.per_board.(0) = solo);
  Alcotest.(check int) "global coverage" solo.Campaign.coverage farm.Farm.coverage;
  Alcotest.(check bool) "global bitmap" true
    (Bitset.to_list solo.Campaign.coverage_bitmap
    = Bitset.to_list farm.Farm.coverage_bitmap);
  Alcotest.(check bool) "global crashes" true (solo.Campaign.crashes = farm.Farm.crashes);
  Alcotest.(check int) "crash events" solo.Campaign.crash_events farm.Farm.crash_events;
  Alcotest.(check int) "executed" solo.Campaign.executed_programs farm.Farm.executed_programs;
  Alcotest.(check bool) "global corpus" true
    (List.map Prog.hash solo.Campaign.final_corpus
    = List.map Prog.hash farm.Farm.final_corpus);
  Alcotest.(check bool) "virtual clock" true
    (solo.Campaign.virtual_s = farm.Farm.virtual_s)

(* --- farm determinism --------------------------------------------------- *)

let farm_digest (o : Farm.outcome) =
  ( Bitset.to_list o.Farm.coverage_bitmap,
    List.map Prog.hash o.Farm.final_corpus,
    List.map Crash.dedup_key o.Farm.crashes,
    o.Farm.crash_events,
    o.Farm.executed_programs,
    o.Farm.iterations_done,
    o.Farm.syncs,
    List.map
      (fun s -> (s.Farm.executed, s.Farm.virtual_s, s.Farm.coverage))
      o.Farm.sync_series )

let test_cooperative_deterministic () =
  let run () =
    let config =
      {
        Farm.boards = 3;
        sync_every = 20;
        base = { Campaign.default_config with iterations = 180; seed = 9L };
      }
    in
    match Farm.run config mk_build with
    | Ok o -> o
    | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "two runs, same global state" true
    (farm_digest a = farm_digest b);
  Alcotest.(check int) "budget spent exactly" 180 a.Farm.iterations_done;
  Alcotest.(check bool) "all boards reported" true (Array.length a.Farm.per_board = 3)

(* --- cross-board sharing ------------------------------------------------ *)

let test_global_state_is_a_union () =
  let config =
    {
      Farm.boards = 4;
      sync_every = 15;
      base = { Campaign.default_config with iterations = 400; seed = 5L };
    }
  in
  match Farm.run config mk_build with
  | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)
  | Ok o ->
    (* Global coverage is the union: at least every shard's own count,
       and exactly the bits the shards own bitmaps contain. *)
    let union = Bitset.create (Bitset.capacity o.Farm.coverage_bitmap) in
    Array.iter
      (fun (b : Campaign.outcome) ->
        ignore (Bitset.union_into ~dst:union ~src:b.Campaign.coverage_bitmap : int);
        Alcotest.(check bool) "global >= shard" true
          (o.Farm.coverage >= b.Campaign.coverage))
      o.Farm.per_board;
    Alcotest.(check bool) "global coverage = union of shards" true
      (Bitset.to_list union = Bitset.to_list o.Farm.coverage_bitmap);
    (* Crash list is globally deduplicated. *)
    let keys = List.map Crash.dedup_key o.Farm.crashes in
    Alcotest.(check bool) "no duplicate crash signatures" true
      (List.length keys = List.length (List.sort_uniq compare keys));
    (* Every shard-discovered signature survives into the global list. *)
    Array.iter
      (fun (b : Campaign.outcome) ->
        List.iter
          (fun c ->
            Alcotest.(check bool) "shard crash in global table" true
              (List.mem (Crash.dedup_key c) keys))
          b.Campaign.crashes)
      o.Farm.per_board;
    Alcotest.(check bool) "executed split across shards" true
      (Array.for_all
         (fun (b : Campaign.outcome) -> b.Campaign.iterations_done = 100)
         o.Farm.per_board);
    Alcotest.(check bool) "syncs happened" true (o.Farm.syncs > 1);
    (* The farm clock is the slowest board, not the sum: parallel boards
       make the campaign faster than the same budget on one board. *)
    let sum =
      Array.fold_left (fun a (b : Campaign.outcome) -> a +. b.Campaign.virtual_s) 0.
        o.Farm.per_board
    in
    let slowest =
      Array.fold_left
        (fun a (b : Campaign.outcome) -> Float.max a b.Campaign.virtual_s)
        0. o.Farm.per_board
    in
    Alcotest.(check bool) "farm clock is the slowest board" true
      (o.Farm.virtual_s = slowest);
    Alcotest.(check bool) "parallel virtual clock" true (o.Farm.virtual_s < sum)

(* --- golden farm digests ------------------------------------------------ *)

(* Rerun equality cannot catch a schedule that changed deterministically;
   these fingerprints pin the min-CPU interleaving and the epoch merges
   as [eof fuzz --boards N --digest] prints them. *)
let test_golden_farm_digests () =
  let digest ~os ~backend ~boards ~sync_every ~iterations ~seed =
    let target = Option.get (Eof_expt.Targets.find os) in
    let config =
      {
        Farm.boards;
        sync_every;
        base = { Campaign.default_config with iterations; seed; backend };
      }
    in
    match Farm.run config (fun _ -> Eof_expt.Targets.build_hw target) with
    | Ok o -> Eof_core.Report.farm_digest o
    | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)
  in
  let zephyr =
    digest ~os:"Zephyr" ~backend:Eof_agent.Machine.Link ~boards:4 ~sync_every:20
      ~iterations:200 ~seed:1L
  in
  let freertos =
    digest ~os:"FreeRTOS" ~backend:Eof_agent.Machine.Native ~boards:3
      ~sync_every:25 ~iterations:600 ~seed:7L
  in
  Alcotest.(check bool) "label" true
    (String.starts_with ~prefix:"digest farm boards=4 coverage=" zephyr);
  Alcotest.(check bool) "Zephyr link, 4 boards" true
    (String.ends_with ~suffix:" crc=cb8f1846" zephyr);
  Alcotest.(check bool) "FreeRTOS native, 3 boards" true
    (String.ends_with ~suffix:" crc=b303af5e" freertos)

let test_farm_rejects_bad_config () =
  (match Farm.run { Farm.boards = 0; sync_every = 25; base = Campaign.default_config } mk_build with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "boards=0 accepted");
  match Farm.run { Farm.boards = 1; sync_every = 0; base = Campaign.default_config } mk_build with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "sync_every=0 accepted"


(* --- trace determinism -------------------------------------------------- *)

module Obs = Eof_obs.Obs

let test_cooperative_trace_deterministic () =
  (* Two identical farm runs must emit byte-identical JSONL event
     streams: timestamps come from board virtual clocks, never the host. *)
  let run () =
    let buf = Buffer.create 4096 in
    let bus = Obs.create () in
    Obs.add_sink bus
      (Obs.sink (fun ~t ~board ~tenant ev ->
           Buffer.add_string buf (Obs.event_to_json ~t ~board ~tenant ev);
           Buffer.add_char buf '\n'));
    let config =
      {
        Farm.boards = 2;
        sync_every = 15;
        base = { Campaign.default_config with iterations = 90; seed = 13L };
      }
    in
    match Farm.run ~obs:bus config mk_build with
    | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)
    | Ok o -> (farm_digest o, Buffer.contents buf)
  in
  let d1, t1 = run () in
  let d2, t2 = run () in
  Alcotest.(check bool) "traces non-empty" true (String.length t1 > 0);
  Alcotest.(check bool) "traces byte-identical" true (String.equal t1 t2);
  Alcotest.(check bool) "outcomes identical" true (d1 = d2);
  (* The stream parses back and carries both boards plus epoch syncs. *)
  let s = Eof_obs.Trace.summarize (List.to_seq (String.split_on_char '\n' t1)) in
  Alcotest.(check int) "no unparseable lines" 0 s.Eof_obs.Trace.bad_lines;
  Alcotest.(check int) "both boards on the trace" 2 s.Eof_obs.Trace.boards;
  Alcotest.(check int) "payload events" 90 s.Eof_obs.Trace.payloads;
  Alcotest.(check bool) "epoch syncs on the trace" true
    (s.Eof_obs.Trace.coverage_final <> None)

let test_farm_obs_does_not_perturb () =
  (* Full event capture must not change the farm's outcome. *)
  let config =
    {
      Farm.boards = 2;
      sync_every = 15;
      base = { Campaign.default_config with iterations = 90; seed = 13L };
    }
  in
  let bare =
    match Farm.run config mk_build with Ok o -> farm_digest o | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)
  in
  let bus = Obs.create () in
  let sink, events = Obs.memory_sink () in
  Obs.add_sink bus sink;
  let observed =
    match Farm.run ~obs:bus config mk_build with
    | Ok o -> farm_digest o
    | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)
  in
  Alcotest.(check bool) "observed farm outcome identical" true (bare = observed);
  Alcotest.(check bool) "events captured" true (List.length (events ()) > 0)

let suite =
  [
    Alcotest.test_case "step loop equals run" `Quick test_step_loop_equals_run;
    Alcotest.test_case "boards:1 equals Campaign.run" `Quick
      test_one_board_farm_equals_campaign;
    Alcotest.test_case "cooperative backend deterministic" `Quick
      test_cooperative_deterministic;
    Alcotest.test_case "global state is a union" `Quick test_global_state_is_a_union;
    Alcotest.test_case "golden farm digests" `Quick test_golden_farm_digests;
    Alcotest.test_case "bad farm config rejected" `Quick test_farm_rejects_bad_config;
    Alcotest.test_case "cooperative trace deterministic" `Quick
      test_cooperative_trace_deterministic;
    Alcotest.test_case "obs does not perturb the farm" `Quick
      test_farm_obs_does_not_perturb;
  ]
