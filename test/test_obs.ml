module Obs = Eof_obs.Obs
module Trace = Eof_obs.Trace

(* --- levels -------------------------------------------------------------- *)

let test_levels () =
  (match Obs.Level.of_string "WARN" with
   | Ok Obs.Level.Warn -> ()
   | _ -> Alcotest.fail "WARN should parse");
  (match Obs.Level.of_string "warning" with
   | Ok Obs.Level.Warn -> ()
   | _ -> Alcotest.fail "warning should parse");
  (match Obs.Level.of_string "loud" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "loud should not parse");
  (* Every level's name, as a trace line carries it, parses back. *)
  List.iter
    (fun l ->
      let line =
        Obs.event_to_json ~t:0. ~board:None ~tenant:None
          (Obs.Event.Message { level = l; text = "x" })
      in
      match Trace.parse_line line with
      | Ok { Trace.fields; _ } ->
        (match List.assoc_opt "level" fields with
         | Some (Obs.V_str name) ->
           (match Obs.Level.of_string name with
            | Ok l' -> Alcotest.(check bool) "roundtrip" true (l = l')
            | Error e -> Alcotest.fail e)
         | _ -> Alcotest.fail "message without a level")
      | Error e -> Alcotest.fail e)
    Obs.Level.[ Trace; Debug; Info; Warn; Error ]

(* --- json writer <-> trace parser roundtrip ------------------------------ *)

let roundtrip ?board ?tenant ev =
  let line = Obs.event_to_json ~t:1.25 ~board ~tenant ev in
  match Trace.parse_line line with
  | Error e -> Alcotest.fail (Printf.sprintf "unparseable %S: %s" line e)
  | Ok parsed ->
    Alcotest.(check string) "tag" (Obs.Event.name ev) parsed.Trace.ev;
    Alcotest.(check (float 1e-9)) "timestamp" 1.25 parsed.Trace.t;
    Alcotest.(check bool) "board" true (parsed.Trace.board = board);
    Alcotest.(check bool) "tenant" true (parsed.Trace.tenant = tenant);
    parsed

let test_json_roundtrip () =
  let p = roundtrip (Obs.Event.Exchange { tx = 10; rx = 20; timeout = false }) in
  Alcotest.(check bool) "tx field" true
    (List.assoc_opt "tx" p.Trace.fields = Some (Obs.V_int 10));
  Alcotest.(check bool) "timeout field" true
    (List.assoc_opt "timeout" p.Trace.fields = Some (Obs.V_bool false));
  let p =
    roundtrip ~board:3 (Obs.Event.Payload { iteration = 7; status = "completed"; new_edges = 4 })
  in
  Alcotest.(check bool) "status" true
    (List.assoc_opt "status" p.Trace.fields = Some (Obs.V_str "completed"));
  let p = roundtrip (Obs.Event.Span { name = "campaign.payload"; dur_us = 123.456 }) in
  (match List.assoc_opt "dur_us" p.Trace.fields with
   | Some (Obs.V_float f) -> Alcotest.(check (float 1e-3)) "dur" 123.456 f
   | _ -> Alcotest.fail "dur_us should be a float");
  ignore (roundtrip Obs.Event.Reset_board : Trace.line);
  (* Escaping: quotes, backslashes and control bytes survive. *)
  let nasty = "a\"b\\c\nd\te\x01f" in
  let p =
    roundtrip (Obs.Event.Message { level = Obs.Level.Info; text = nasty })
  in
  (match List.assoc_opt "text" p.Trace.fields with
   | Some (Obs.V_str s) ->
     Alcotest.(check string) "escaped text" nasty s
   | _ -> Alcotest.fail "text should be a string")

(* --- counters ------------------------------------------------------------ *)

let test_counters () =
  let bus = Obs.create () in
  let a = Obs.Counter.make bus "x.a" in
  let a' = Obs.Counter.make bus "x.a" in
  let b = Obs.Counter.make bus "x.b" in
  Obs.Counter.incr a;
  Obs.Counter.add a' 10;
  Obs.Counter.add b 2;
  Alcotest.(check int) "aliased, by name" 11 (Obs.counter_value bus "x.a");
  Alcotest.(check int) "missing is 0" 0 (Obs.counter_value bus "x.zzz");
  Alcotest.(check bool) "snapshot sorted" true
    (Obs.counters bus = [ ("x.a", 11); ("x.b", 2) ]);
  (* Counters are shared across for_board handles. *)
  let h = Obs.for_board bus 2 in
  Obs.Counter.incr (Obs.Counter.make h "x.b");
  Alcotest.(check int) "shared core" 3 (Obs.counter_value bus "x.b")

(* --- spans and the virtual clock ----------------------------------------- *)

let test_spans () =
  let bus = Obs.create () in
  let sink, events = Obs.memory_sink () in
  Obs.add_sink bus sink;
  let now = ref 1.0 in
  Obs.set_clock bus (fun () -> !now);
  let span = Obs.span_begin bus "phase" in
  now := 1.5;
  Obs.span_end bus span;
  Alcotest.(check int) "span count" 1 (Obs.counter_value bus "span.phase.count");
  Alcotest.(check int) "span us" 500_000 (Obs.counter_value bus "span.phase.us");
  match events () with
  | [ (t, None, Obs.Event.Span { name = "phase"; dur_us }) ] ->
    Alcotest.(check (float 1e-6)) "emitted at end" 1.5 t;
    Alcotest.(check (float 1e-3)) "duration" 500_000. dur_us
  | _ -> Alcotest.fail "expected exactly one span event"

(* --- sinks, levels, board tags ------------------------------------------- *)

let test_sinks_and_boards () =
  let bus = Obs.create () in
  Alcotest.(check bool) "inert" false (Obs.active bus);
  Obs.emit bus Obs.Event.Reset_board;  (* no sink: must be a no-op *)
  let sink, events = Obs.memory_sink () in
  Obs.add_sink bus sink;
  Alcotest.(check bool) "active" true (Obs.active bus);
  let warn_only = ref 0 in
  Obs.add_sink bus
    (Obs.sink ~min_level:Obs.Level.Warn (fun ~t:_ ~board:_ ~tenant:_ _ -> incr warn_only));
  let b1 = Obs.for_board bus 1 in
  Obs.emit bus (Obs.Event.Batch { ops = 4 });  (* Trace level *)
  Obs.emit b1 (Obs.Event.Crash_found { kind = "Hang"; operation = "op" });  (* Warn *)
  Obs.message b1 Obs.Level.Info "hello";
  (match events () with
   | [ (_, None, Obs.Event.Batch _);
       (_, Some 1, Obs.Event.Crash_found _);
       (_, Some 1, Obs.Event.Message _) ] -> ()
   | evs -> Alcotest.fail (Printf.sprintf "unexpected stream (%d events)" (List.length evs)));
  Alcotest.(check int) "level filter" 1 !warn_only;
  (* A for_board handle carries its own clock. *)
  Obs.set_clock b1 (fun () -> 9.0);
  Obs.emit b1 Obs.Event.Reset_board;
  Obs.emit bus Obs.Event.Reset_board;
  (match List.rev (events ()) with
   | (t_bus, None, _) :: (t_b1, Some 1, _) :: _ ->
     Alcotest.(check (float 1e-9)) "own clock" 9.0 t_b1;
     Alcotest.(check (float 1e-9)) "parent clock untouched" 0.0 t_bus
   | _ -> Alcotest.fail "clock events missing")

(* --- trace summarization -------------------------------------------------- *)

let test_trace_summarize () =
  let lines =
    [
      {|{"t":0.000000,"ev":"message","level":"info","text":"hi"}|};
      {|{"t":0.001000,"board":0,"ev":"exchange","tx":10,"rx":20,"timeout":false}|};
      {|{"t":0.002000,"board":0,"ev":"exchange","tx":5,"rx":0,"timeout":true}|};
      {|{"t":0.002500,"board":1,"ev":"batch","ops":6}|};
      {|{"t":0.003000,"board":0,"ev":"payload","iteration":1,"status":"completed","new_edges":3}|};
      {|{"t":0.004000,"board":1,"ev":"payload","iteration":1,"status":"crashed","new_edges":2}|};
      {|{"t":0.004100,"board":1,"ev":"crash","kind":"Kernel Panic","operation":"k_free"}|};
      {|{"t":0.004500,"board":1,"ev":"span","name":"campaign.payload","dur_us":1500.000}|};
      {|{"t":0.005000,"ev":"epoch-sync","sync":1,"executed":2,"coverage":41}|};
      "this is not json";
      "";
    ]
  in
  let s = Trace.summarize (List.to_seq lines) in
  Alcotest.(check int) "events" 9 s.Trace.events;
  Alcotest.(check int) "bad lines" 1 s.Trace.bad_lines;
  Alcotest.(check int) "boards" 2 s.Trace.boards;
  Alcotest.(check (float 1e-9)) "t_last" 0.005 s.Trace.t_last;
  Alcotest.(check int) "exchanges" 2 s.Trace.exchanges;
  Alcotest.(check int) "timeouts" 1 s.Trace.timeouts;
  Alcotest.(check int) "bytes tx" 15 s.Trace.bytes_tx;
  Alcotest.(check int) "bytes rx" 20 s.Trace.bytes_rx;
  Alcotest.(check int) "batch ops" 6 s.Trace.batch_ops;
  Alcotest.(check int) "payloads" 2 s.Trace.payloads;
  Alcotest.(check int) "crashes" 1 s.Trace.crashes;
  Alcotest.(check int) "new edges" 5 s.Trace.new_edges;
  Alcotest.(check bool) "coverage final" true (s.Trace.coverage_final = Some 41);
  (match s.Trace.spans with
   | [ ("campaign.payload", 1, us) ] -> Alcotest.(check (float 1e-3)) "span us" 1500. us
   | _ -> Alcotest.fail "span totals wrong");
  (match s.Trace.growth with
   | [ (_, 3); (_, 5) ] -> ()
   | _ -> Alcotest.fail "growth curve wrong");
  let rendered = Trace.render s in
  Alcotest.(check bool) "render non-empty" true (String.length rendered > 0);
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "payload total" true (contains "payloads: 2" rendered)

let test_trace_parse_errors () =
  (match Trace.parse_line {|{"ev":"exchange"}|} with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "missing t must fail");
  (match Trace.parse_line {|{"t":1.0}|} with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "missing ev must fail");
  (match Trace.parse_line {|{"t":1.0,"ev":"x"} trailing|} with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "trailing bytes must fail")

let suite =
  [
    Alcotest.test_case "levels" `Quick test_levels;
    Alcotest.test_case "json writer/parser roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "spans on the virtual clock" `Quick test_spans;
    Alcotest.test_case "sinks, levels, board tags" `Quick test_sinks_and_boards;
    Alcotest.test_case "trace summarize" `Quick test_trace_summarize;
    Alcotest.test_case "trace parse errors" `Quick test_trace_parse_errors;
  ]
