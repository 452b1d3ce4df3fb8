open Eof_os
module Campaign = Eof_core.Campaign
module Bufgen = Eof_baselines.Bufgen

let test_bufgen_bounds () =
  let rng = Eof_util.Rng.create 1L in
  let g = Bufgen.create ~rng ~max_len:64 in
  for _ = 1 to 200 do
    let b = Bufgen.fresh g in
    Alcotest.(check bool) "fresh bounded" true
      (String.length b >= 1 && String.length b <= 64);
    let h = Bufgen.havoc g b in
    Alcotest.(check bool) "havoc bounded" true
      (String.length h >= 1 && String.length h <= 64)
  done

let test_bufgen_corpus () =
  let rng = Eof_util.Rng.create 2L in
  let store = Bufgen.Corpus.create ~rng in
  Alcotest.(check bool) "add" true (Bufgen.Corpus.add store "abc");
  Alcotest.(check bool) "dup" false (Bufgen.Corpus.add store "abc");
  Alcotest.(check int) "size" 1 (Bufgen.Corpus.size store);
  Alcotest.(check (option string)) "pick" (Some "abc") (Bufgen.Corpus.pick store)

let test_gustave_genome_decode () =
  let build = Eof_baselines.Gustave.build_for Pokos.spec in
  let table = Osbuild.api_signatures build in
  let n = List.length table.Eof_rtos.Api.entries in
  (* Empty genome -> empty program; decode is total over random bytes. *)
  Alcotest.(check int) "empty" 0
    (List.length (Eof_baselines.Gustave.decode_genome ~table ""));
  let rng = Eof_util.Rng.create 3L in
  for _ = 1 to 100 do
    let genome = Bytes.unsafe_to_string (Eof_util.Rng.bytes rng (Eof_util.Rng.int rng 128)) in
    let prog = Eof_baselines.Gustave.decode_genome ~table genome in
    List.iter
      (fun (c : Eof_agent.Wire.call) ->
        Alcotest.(check bool) "api in range" true (c.Eof_agent.Wire.api_index < n))
      prog;
    (* The decoded program must be wire-encodable (refs are backward). *)
    match Eof_agent.Wire.encode ~endianness:Eof_hw.Arch.Little prog with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  done

let test_tardis_runs_and_is_weaker_monitored () =
  let build = Eof_baselines.Tardis.build_for Zephyr.spec in
  Alcotest.(check string) "emulated board" "qemu-mps2-an385"
    (Eof_hw.Board.profile (Osbuild.board build)).Eof_hw.Board.name;
  match Eof_baselines.Tardis.run ~seed:3L ~iterations:300 build with
  | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)
  | Ok o ->
    Alcotest.(check bool) "coverage" true (o.Campaign.coverage > 0);
    Alcotest.(check int) "iterations" 300 o.Campaign.iterations_done;
    (* Tardis has no exception/log monitor: every crash it records is a
       timeout-style observation. *)
    List.iter
      (fun (c : Eof_core.Crash.t) ->
        Alcotest.(check string) "timeout-only" "timeout"
          (Eof_core.Crash.monitor_name c.Eof_core.Crash.detected_by))
      o.Campaign.crashes

let test_tardis_spec_subset () =
  List.iter
    (fun os ->
      let unsupported = Eof_baselines.Tardis.unsupported_calls os in
      Alcotest.(check bool) (os ^ " has a reduced spec") true
        (os = "PoKOS" || unsupported <> []))
    [ "Zephyr"; "RT-Thread"; "NuttX"; "FreeRTOS"; "PoKOS" ]

let test_shift_freertos_only () =
  let zephyr = Osbuild.make ~board_profile:Eof_hw.Profiles.stm32f4_disco Zephyr.spec in
  (match Eof_baselines.Shift.run ~seed:1L ~iterations:10 ~entry_api:"json_parse" zephyr with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "SHIFT accepted a non-FreeRTOS target");
  let frt =
    Osbuild.make
      ~instrument:(Osbuild.Instrument_only [ Freertos.json_module ])
      ~board_profile:Eof_hw.Profiles.esp32_devkitc Freertos.spec
  in
  match Eof_baselines.Shift.run ~seed:1L ~iterations:150 ~entry_api:"json_parse" frt with
  | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)
  | Ok o ->
    Alcotest.(check bool) "edge feedback finds coverage" true (o.Campaign.coverage > 0);
    Alcotest.(check bool) "corpus grows" true (o.Campaign.corpus_size > 0)

let test_gdbfuzz_runs () =
  let build =
    Osbuild.make
      ~instrument:(Osbuild.Instrument_only [ Freertos.http_module ])
      ~board_profile:Eof_hw.Profiles.esp32_devkitc Freertos.spec
  in
  match
    Eof_baselines.Gdbfuzz.run ~seed:2L ~iterations:150 ~entry_api:"http_request"
      ~sample_modules:[ Freertos.http_module ] build
  with
  | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)
  | Ok o ->
    Alcotest.(check bool) "coverage measured" true (o.Campaign.coverage > 0);
    Alcotest.(check int) "iterations" 150 o.Campaign.iterations_done

let test_gustave_runs () =
  let build = Eof_baselines.Gustave.build_for Pokos.spec in
  match Eof_baselines.Gustave.run ~seed:4L ~iterations:200 build with
  | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)
  | Ok o ->
    Alcotest.(check bool) "coverage" true (o.Campaign.coverage > 0);
    Alcotest.(check bool) "executed" true (o.Campaign.executed_programs > 0)

(* Golden digests at small budgets: the baselines drain coverage
   through the shared counted reads ([Board.read_counted] for the
   emulation tools, [Machine.read_counted] for GDBFuzz and SHIFT), so
   any change to what those reads return moves these lines. *)
let digest_of = function
  | Ok o -> Eof_core.Report.campaign_digest o
  | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)

let freertos_with m =
  Osbuild.make ~instrument:(Osbuild.Instrument_only [ m ])
    ~board_profile:Eof_hw.Profiles.esp32_devkitc Freertos.spec

let test_golden_digests () =
  Alcotest.(check string) "tardis"
    "digest campaign coverage=171 crashes=2 crash_events=5 executed=300 iterations=300 \
     corpus=65 crc=2d731877"
    (digest_of
       (Eof_baselines.Tardis.run ~seed:3L ~iterations:300
          (Eof_baselines.Tardis.build_for Zephyr.spec)));
  Alcotest.(check string) "gustave"
    "digest campaign coverage=47 crashes=0 crash_events=0 executed=200 iterations=200 \
     corpus=0 crc=b3c879f0"
    (digest_of
       (Eof_baselines.Gustave.run ~seed:4L ~iterations:200
          (Eof_baselines.Gustave.build_for Pokos.spec)));
  Alcotest.(check string) "gdbfuzz"
    "digest campaign coverage=13 crashes=0 crash_events=0 executed=150 iterations=150 \
     corpus=0 crc=abe7c8aa"
    (digest_of
       (Eof_baselines.Gdbfuzz.run ~seed:2L ~iterations:150 ~entry_api:"http_request"
          ~sample_modules:[ Freertos.http_module ]
          (freertos_with Freertos.http_module)));
  Alcotest.(check string) "shift"
    "digest campaign coverage=29 crashes=0 crash_events=0 executed=75 iterations=75 \
     corpus=0 crc=6088c271"
    (digest_of
       (Eof_baselines.Shift.run ~seed:1L ~iterations:150 ~entry_api:"json_parse"
          (freertos_with Freertos.json_module)))

(* Full outcomes of the emulator baselines: the digest line plus every
   field it leaves out (resets, stalls, timeouts, virtual time, the
   sample series and each crash record's text), so a change anywhere in
   the shared emulator harness moves one of these lines. The RT-Thread
   run reaches Tardis's stall path and the Zephyr Gustave run its crash
   path. *)
let full_outcome = function
  | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)
  | Ok (o : Campaign.outcome) ->
    let b = Buffer.create 4096 in
    List.iter
      (fun (s : Campaign.sample) ->
        Printf.bprintf b "%d:%h:%d;" s.Campaign.iteration s.Campaign.virtual_s
          s.Campaign.coverage)
      o.Campaign.series;
    Buffer.add_char b '|';
    List.iter
      (fun (c : Eof_core.Crash.t) ->
        Printf.bprintf b "%s/%s/%s/%s/%s/%s/%d;" (Eof_core.Crash.dedup_key c)
          c.Eof_core.Crash.scope c.Eof_core.Crash.message
          (String.concat "<" c.Eof_core.Crash.backtrace)
          (Eof_core.Crash.monitor_name c.Eof_core.Crash.detected_by)
          c.Eof_core.Crash.program c.Eof_core.Crash.iteration)
      o.Campaign.crashes;
    Printf.sprintf
      "%s resets=%d reflashes=%d stalls=%d timeouts=%d corpus_size=%d virtual_s=%h \
       series=%d aborted=%b full=%08lx"
      (Eof_core.Report.campaign_digest o) o.Campaign.resets o.Campaign.reflashes
      o.Campaign.stalls o.Campaign.timeouts o.Campaign.corpus_size o.Campaign.virtual_s
      (List.length o.Campaign.series) (o.Campaign.abort_cause <> None)
      (Eof_util.Crc32.digest_string (Buffer.contents b))

let test_golden_full_outcomes () =
  Alcotest.(check string) "tardis zephyr"
    "digest campaign coverage=171 crashes=2 crash_events=5 executed=300 iterations=300 \
     corpus=65 crc=2d731877 resets=5 reflashes=0 stalls=0 timeouts=0 corpus_size=65 \
     virtual_s=0x1.b594ccd631fb5p-9 series=31 aborted=false full=9e32b60f"
    (full_outcome
       (Eof_baselines.Tardis.run ~seed:3L ~iterations:300
          (Eof_baselines.Tardis.build_for Zephyr.spec)));
  Alcotest.(check string) "tardis rt-thread"
    "digest campaign coverage=119 crashes=2 crash_events=7 executed=397 iterations=400 \
     corpus=55 crc=0d7d27c3 resets=7 reflashes=0 stalls=3 timeouts=3 corpus_size=55 \
     virtual_s=0x1.108d08919ef95p-1 series=41 aborted=false full=c6b80f6f"
    (full_outcome
       (Eof_baselines.Tardis.run ~seed:3L ~iterations:400
          (Eof_baselines.Tardis.build_for Rtthread.spec)));
  Alcotest.(check string) "gustave pokos"
    "digest campaign coverage=47 crashes=0 crash_events=0 executed=200 iterations=200 \
     corpus=0 crc=b3c879f0 resets=0 reflashes=0 stalls=0 timeouts=0 corpus_size=27 \
     virtual_s=0x1.38949c03d7252p-11 series=21 aborted=false full=830fefd4"
    (full_outcome
       (Eof_baselines.Gustave.run ~seed:4L ~iterations:200
          (Eof_baselines.Gustave.build_for Pokos.spec)));
  Alcotest.(check string) "gustave zephyr"
    "digest campaign coverage=93 crashes=1 crash_events=22 executed=400 iterations=400 \
     corpus=0 crc=8d1284c6 resets=22 reflashes=0 stalls=0 timeouts=0 corpus_size=45 \
     virtual_s=0x1.0c7a36d2cff12p-10 series=41 aborted=false full=740823c4"
    (full_outcome
       (Eof_baselines.Gustave.run ~seed:4L ~iterations:400
          (Eof_baselines.Gustave.build_for Zephyr.spec)))

let suite =
  [
    Alcotest.test_case "bufgen bounds" `Quick test_bufgen_bounds;
    Alcotest.test_case "bufgen corpus" `Quick test_bufgen_corpus;
    Alcotest.test_case "gustave genome decode" `Quick test_gustave_genome_decode;
    Alcotest.test_case "tardis runs (timeout-only monitors)" `Quick
      test_tardis_runs_and_is_weaker_monitored;
    Alcotest.test_case "tardis spec subset" `Quick test_tardis_spec_subset;
    Alcotest.test_case "shift freertos-only" `Quick test_shift_freertos_only;
    Alcotest.test_case "gdbfuzz runs" `Quick test_gdbfuzz_runs;
    Alcotest.test_case "gustave runs" `Quick test_gustave_runs;
    Alcotest.test_case "golden digests (tardis, gustave, gdbfuzz, shift)" `Quick
      test_golden_digests;
    Alcotest.test_case "golden full outcomes (tardis, gustave)" `Quick
      test_golden_full_outcomes;
  ]
