open Eof_os
module Gen = Eof_core.Gen
module Prog = Eof_core.Prog
module Corpus = Eof_core.Corpus
module Feedback = Eof_core.Feedback
module Monitor = Eof_core.Monitor
module Crash = Eof_core.Crash
module Campaign = Eof_core.Campaign
module Liveness = Eof_core.Liveness

let os_env os_spec =
  lazy
    (let build = Osbuild.make ~board_profile:Eof_hw.Profiles.stm32f4_disco os_spec in
     let table = Osbuild.api_signatures build in
     let spec =
       match Eof_spec.Synth.validated_of_api table with
       | Ok s -> s
       | Error e -> failwith e
     in
     (build, table, spec))

let zephyr_env = os_env Zephyr.spec

let make_gen ?(dep_aware = true) seed =
  let _, table, spec = Lazy.force zephyr_env in
  Gen.create ~dep_aware ~rng:(Eof_util.Rng.create seed) ~spec ~table ()

let test_generate_valid_programs () =
  let gen = make_gen 1L in
  for _ = 1 to 200 do
    let prog = Gen.generate gen ~max_len:10 in
    Alcotest.(check bool) "non-empty" true (List.length prog >= 1);
    (match Prog.validate prog with
     | Ok () -> ()
     | Error e -> Alcotest.fail (e ^ "\n" ^ Prog.to_string prog));
    (* And the wire encoding must accept it. *)
    match Eof_agent.Wire.encode ~endianness:Eof_hw.Arch.Little (Prog.to_wire prog) with
    | Ok _ -> ()
    | Error e -> Alcotest.fail ("wire: " ^ e)
  done

let test_mutate_preserves_validity () =
  let gen = make_gen 2L in
  let prog = ref (Gen.generate gen ~max_len:8) in
  for _ = 1 to 300 do
    prog := Gen.mutate gen !prog ~max_len:16;
    Alcotest.(check bool) "non-empty" true (List.length !prog >= 1);
    Alcotest.(check bool) "within cap" true (List.length !prog <= 16 + 2);
    match Prog.validate !prog with
    | Ok () -> ()
    | Error e -> Alcotest.fail (e ^ "\n" ^ Prog.to_string !prog)
  done

let test_generation_respects_dependencies () =
  let gen = make_gen 3L in
  (* Resource-consuming calls must always reference a matching earlier
     producer in dep-aware mode; validate already enforces this, so a
     large sample is enough. *)
  for _ = 1 to 100 do
    let prog = Gen.generate gen ~max_len:12 in
    List.iteri
      (fun i (call : Prog.call) ->
        List.iter2
          (fun arg (_, ty) ->
            match (arg, ty) with
            | Prog.Res k, Eof_spec.Ast.Ty_res kind ->
              let producer = List.nth prog k in
              Alcotest.(check bool)
                (Printf.sprintf "call %d ref kind" i)
                true
                (producer.Prog.spec.Eof_spec.Ast.ret = Some kind)
            | _ -> ())
          call.Prog.args call.Prog.spec.Eof_spec.Ast.args)
      prog
  done

let test_substitute () =
  let gen = make_gen 4L in
  let _, table, spec = Lazy.force zephyr_env in
  ignore table;
  let call_named name =
    List.find (fun (c : Eof_spec.Ast.call) -> c.Eof_spec.Ast.name = name) spec.Eof_spec.Ast.calls
  in
  let sleep = call_named "k_sleep" in
  let prog = [ { Prog.spec = sleep; api_index = 5; args = [ Prog.Int 40L ] } ] in
  (* Pair (40, 200): the argument 40 was compared against 200. The
     patch is the constant or its off-by-one neighbours. *)
  (match Gen.substitute gen prog ~pairs:[ (40L, 200L) ] with
   | Some [ { Prog.args = [ Prog.Int v ]; _ } ]
     when Int64.abs (Int64.sub v 200L) <= 1L -> ()
   | Some p -> Alcotest.fail ("unexpected substitution\n" ^ Prog.to_string p)
   | None -> Alcotest.fail "no substitution found");
  (* substitute_all enumerates the exact constant and constant+1. *)
  let children = ref [] in
  Gen.substitute_all gen prog ~pairs:[ (40L, 200L) ] (fun child ->
      children := child :: !children;
      true);
  (match List.rev !children with
   | [ [ { Prog.args = [ Prog.Int 200L ]; _ } ]; [ { Prog.args = [ Prog.Int 201L ]; _ } ] ] -> ()
   | children ->
     Alcotest.fail (Printf.sprintf "substitute_all: %d children" (List.length children)));
  (* A consumer that is full stops the enumeration. *)
  let seen = ref 0 in
  Gen.substitute_all gen prog ~pairs:[ (40L, 200L) ] (fun _ ->
      incr seen;
      false);
  Alcotest.(check int) "stops at the first false" 1 !seen;
  (* Trivial pairs are ignored. *)
  (match Gen.substitute gen prog ~pairs:[ (40L, 1L) ] with
   | None -> ()
   | Some _ -> Alcotest.fail "noisy pair used");
  (* No matching argument -> None. *)
  match Gen.substitute gen prog ~pairs:[ (999L, 200L) ] with
  | None -> ()
  | Some _ -> Alcotest.fail "phantom match"

let test_int_hints_used () =
  let gen = make_gen 5L in
  Gen.add_int_hint gen 12345L;
  Gen.add_int_hint gen 12345L;
  Alcotest.(check int) "dedup" 1 (Gen.hint_count gen);
  (* With a single hint, gen_value over a wide range must eventually
     produce it. *)
  let seen = ref false in
  for _ = 1 to 500 do
    match Gen.gen_value gen (Eof_spec.Ast.Ty_int { min = 0L; max = 100000L }) with
    | Prog.Int 12345L -> seen := true
    | _ -> ()
  done;
  Alcotest.(check bool) "hint replayed" true !seen

let test_corpus_dedup_and_pick () =
  let rng = Eof_util.Rng.create 6L in
  let corpus = Corpus.create ~rng () in
  let gen = make_gen 7L in
  let p1 = Gen.generate gen ~max_len:4 in
  Alcotest.(check bool) "added" true (Corpus.add corpus ~prog:p1 ~new_edges:3 ~crashed:false);
  Alcotest.(check bool) "dup rejected" false
    (Corpus.add corpus ~prog:p1 ~new_edges:3 ~crashed:false);
  Alcotest.(check int) "size" 1 (Corpus.size corpus);
  (match Corpus.pick corpus with
   | Some p -> Alcotest.(check bool) "pick returns seed" true (Prog.hash p = Prog.hash p1)
   | None -> Alcotest.fail "empty pick");
  Alcotest.(check int) "total" 1 (Corpus.total_added corpus)

let test_corpus_eviction () =
  let rng = Eof_util.Rng.create 8L in
  let corpus = Corpus.create ~capacity:4 ~rng () in
  let gen = make_gen 9L in
  for i = 1 to 10 do
    ignore
      (Corpus.add corpus ~prog:(Gen.generate gen ~max_len:6) ~new_edges:i ~crashed:false
        : bool)
  done;
  Alcotest.(check bool) "bounded" true (Corpus.size corpus <= 5)

let test_corpus_merge_dedup_across_shards () =
  (* Two shards discover overlapping seed sets; merging both into a
     global corpus must import each program once, whichever shard
     contributed it first. *)
  let gen = make_gen 31L in
  let p1 = Gen.generate gen ~max_len:4 in
  let p2 = Gen.generate gen ~max_len:4 in
  let p3 = Gen.generate gen ~max_len:4 in
  let shard seed progs =
    let c = Corpus.create ~rng:(Eof_util.Rng.create seed) () in
    List.iter
      (fun prog -> ignore (Corpus.add c ~prog ~new_edges:2 ~crashed:false : bool))
      progs;
    c
  in
  let a = shard 1L [ p1; p2 ] in
  let b = shard 2L [ p2; p3 ] in
  let global = Corpus.create ~rng:(Eof_util.Rng.create 3L) () in
  Alcotest.(check int) "all of shard A imported" 2 (Corpus.merge global a ~since:0);
  (* p2 is a cross-shard duplicate: only p3 is new. *)
  Alcotest.(check int) "shard B deduplicated" 1 (Corpus.merge global b ~since:0);
  Alcotest.(check int) "global size" 3 (Corpus.size global);
  Alcotest.(check int) "re-merge is a no-op" 0 (Corpus.merge global a ~since:0);
  (* Addition order is preserved: oldest-first from A, then the novel
     tail of B. *)
  Alcotest.(check bool) "merge order" true
    (List.map Prog.hash (Corpus.progs global) = List.map Prog.hash [ p3; p2; p1 ]);
  (* Source corpora are untouched. *)
  Alcotest.(check int) "shard A intact" 2 (Corpus.size a);
  Alcotest.(check int) "shard B intact" 2 (Corpus.size b)

let test_corpus_merge_eviction_order () =
  (* Merging into a bounded corpus evicts exactly as add does: the
     lowest-scoring seed goes first once capacity is exceeded. *)
  let gen = make_gen 32L in
  let progs = List.init 6 (fun _ -> Gen.generate gen ~max_len:4) in
  let src = Corpus.create ~rng:(Eof_util.Rng.create 4L) () in
  List.iteri
    (fun i prog ->
      (* Scores 4, 8, 12, 16, 20, 24: seed 0 is the weakest. *)
      ignore (Corpus.add src ~prog ~new_edges:(i + 1) ~crashed:false : bool))
    progs;
  let dst = Corpus.create ~capacity:4 ~rng:(Eof_util.Rng.create 5L) () in
  let imported = Corpus.merge dst src ~since:0 in
  Alcotest.(check int) "all were imported (then evicted)" 6 imported;
  Alcotest.(check bool) "capacity respected" true (Corpus.size dst <= 5);
  let surviving = List.map Prog.hash (Corpus.progs dst) in
  (* The weakest seed (first added, score 4) must be gone; the
     strongest (last added, score 24) must survive. *)
  Alcotest.(check bool) "weakest evicted" false
    (List.mem (Prog.hash (List.nth progs 0)) surviving);
  Alcotest.(check bool) "strongest survives" true
    (List.mem (Prog.hash (List.nth progs 5)) surviving);
  (* An evicted program stays known by hash: merging it again is a
     duplicate, not a re-import. *)
  Alcotest.(check int) "evicted hash still rejected" 0 (Corpus.merge dst src ~since:0)

(* Cursor merges are exact. A farm-style exchange — a shard pushes into
   a shared corpus from its push cursor, an epoch pushes then pulls back
   from the pull cursor — leaves both corpora exactly as merging every
   whole corpus does, across duplicates and evictions (both capacities
   are tiny). [since] returns exactly the live seeds admitted after any
   earlier checkpoint: those not live at that checkpoint. *)
let prop_corpus_cursor_merge =
  let pool =
    lazy
      (let gen = make_gen 41L in
       Array.init 12 (fun _ -> Gen.generate gen ~max_len:4))
  in
  QCheck.Test.make ~name:"corpus cursor merge equals full merge" ~count:200
    QCheck.(
      list_of_size Gen.(1 -- 60) (triple (int_bound 3) (int_bound 11) (int_bound 9)))
    (fun ops ->
      let pool = Lazy.force pool in
      let target = Corpus.default_target in
      let mk seed capacity = Corpus.create ~capacity ~rng:(Eof_util.Rng.create seed) () in
      let shard = mk 1L 4 and shared = mk 2L 6 in
      let shard_full = mk 1L 4 and shared_full = mk 2L 6 in
      let added = ref 0 and pulled = ref 0 in
      let hashes progs = List.map Prog.hash progs in
      let same a b =
        hashes (Corpus.progs a) = hashes (Corpus.progs b)
        && Corpus.total_added a = Corpus.total_added b
        && Corpus.frontier_size a ~target = Corpus.frontier_size b ~target
        && Array.for_all
             (fun p -> Corpus.on_frontier a ~target p = Corpus.on_frontier b ~target p)
             pool
      in
      let push () =
        ignore (Corpus.merge shared shard ~since:!added : int);
        added := Corpus.total_added shard;
        ignore (Corpus.merge shared_full shard_full ~since:0 : int)
      in
      let pull () =
        ignore (Corpus.merge shard shared ~since:!pulled : int);
        pulled := Corpus.total_added shared;
        added := Corpus.total_added shard;
        ignore (Corpus.merge shard_full shared_full ~since:0 : int)
      in
      let checkpoint c = (Corpus.total_added c, hashes (Corpus.progs c)) in
      let since_exact c checkpoints =
        List.for_all
          (fun (n, live) ->
            hashes (Corpus.since c n)
            = List.filter (fun h -> not (List.mem h live)) (hashes (Corpus.progs c)))
          checkpoints
      in
      let shard_cps = ref [ checkpoint shard ] and shared_cps = ref [ checkpoint shared ] in
      List.for_all
        (fun (op, i, new_edges) ->
          let add c = ignore (Corpus.add c ~prog:pool.(i) ~new_edges ~crashed:false : bool) in
          (match op with
           | 0 -> add shard; add shard_full
           | 1 -> add shared; add shared_full
           | 2 -> push ()
           | _ -> push (); pull ());
          shard_cps := checkpoint shard :: !shard_cps;
          shared_cps := checkpoint shared :: !shared_cps;
          same shard shard_full && same shared shared_full
          && since_exact shard !shard_cps && since_exact shared !shared_cps)
        ops)

let test_feedback_merge () =
  let fb = Feedback.create ~edge_capacity:100 in
  let merge edges = Feedback.merge_array fb (Array.of_list edges) ~len:(List.length edges) in
  Alcotest.(check int) "first merge" 3 (merge [ 1; 2; 3 ]);
  Alcotest.(check int) "repeat merge" 0 (merge [ 1; 2; 3 ]);
  Alcotest.(check int) "partial" 1 (merge [ 3; 4 ]);
  Alcotest.(check int) "out of range ignored" 0 (merge [ -1; 100; 40000 ]);
  Alcotest.(check int) "only the first len entries" 1
    (Feedback.merge_array fb [| 5; 6; 7 |] ~len:1);
  Alcotest.(check int) "covered" 5 (Feedback.covered fb)

let test_monitor_patterns () =
  let log =
    "[Zephyr] booted\n\
     [Zephyr] KERNEL PANIC: encoder stack overflow\n\
     Stack frames at BUG: unexpected stop:\n\
    \  Level 1: lib/utils/json.c : json_obj_encode : 733\n\
    \  Level 2: lib/utils/json.c : encode : 684\n\
     [RT-Thread] ASSERTION FAILED: rt_object_init: slot 3 already initialised\n\
     [NuttX] ERROR: something else\n"
  in
  let detections = Monitor.scan log in
  (match Monitor.first_panic detections with
   | Some (os, msg) ->
     Alcotest.(check string) "panic os" "Zephyr" os;
     Alcotest.(check string) "panic msg" "encoder stack overflow" msg
   | None -> Alcotest.fail "panic missed");
  (match Monitor.first_assertion detections with
   | Some (os, msg) ->
     Alcotest.(check string) "assert os" "RT-Thread" os;
     Alcotest.(check (option string)) "assert op" (Some "rt_object_init")
       (Monitor.assert_operation msg)
   | None -> Alcotest.fail "assertion missed");
  Alcotest.(check int) "backtrace frames" 2
    (List.length (Monitor.collect_backtrace detections))

(* The regular expressions the log monitor used before it matched by
   prefix, kept as the reference model. The ERROR pattern is gone from
   the monitor (no crash record ever read it), so its matches must now
   yield nothing. *)
let reference_scan =
  let re s = Re.compile (Re.Pcre.re s) in
  let panic = re {|^\[([^\]]+)\] KERNEL PANIC: (.*)$|}
  and assertion = re {|^\[([^\]]+)\] ASSERTION FAILED: (.*)$|}
  and frame = re {|^\s*Level \d+: (.*)$|} in
  let line l =
    let group re f = Option.map f (Re.exec_opt re l) in
    match group panic (fun g -> Printf.sprintf "P|%s|%s" (Re.Group.get g 1) (Re.Group.get g 2)) with
    | Some d -> Some d
    | None ->
      (match
         group assertion (fun g ->
             Printf.sprintf "A|%s|%s" (Re.Group.get g 1) (Re.Group.get g 2))
       with
       | Some d -> Some d
       | None -> group frame (fun g -> "F|" ^ Re.Group.get g 1))
  in
  fun text -> String.split_on_char '\n' text |> List.filter_map line

let show_detection = function
  | Monitor.Panic_banner { os; message } -> Printf.sprintf "P|%s|%s" os message
  | Monitor.Assertion_failure { os; message } -> Printf.sprintf "A|%s|%s" os message
  | Monitor.Backtrace_frame f -> "F|" ^ f

(* Klog line shapes and their near misses: empty or unterminated "[os]",
   no space after ']', ']' inside the message, "Level" without digits,
   leading and trailing control blanks, and ERROR lines. *)
let gen_log =
  let open QCheck.Gen in
  let os = oneofl [ ""; "Zephyr"; "RT-Thread"; "a]b"; "["; " " ] in
  let tag =
    oneofl
      [ " KERNEL PANIC: "; " ASSERTION FAILED: "; " ERROR: "; "KERNEL PANIC: ";
        " KERNEL PANIC:"; " ASSERTION FAILED:"; " "; "" ]
  in
  let blanks = string_size ~gen:(oneofl [ ' '; '\t'; '\r'; '\x0b'; '\x0c'; 'x' ]) (0 -- 3) in
  let digits = string_size ~gen:(oneofl [ '0'; '7'; '9'; 'a'; ' ' ]) (0 -- 3) in
  let msg =
    oneofl [ ""; "rt_object_init: slot 3"; "a]b"; "lib/x.c : f : 7"; "x\r"; "\r"; ": " ]
  in
  let fragment =
    oneofl
      [ "["; "]"; "[]"; "Zephyr"; " "; "\t"; "\r"; "\x0b"; "Level "; "Level"; "12"; ": ";
        ":"; " KERNEL PANIC: "; " ASSERTION FAILED: "; " ERROR: "; "msg" ]
  in
  let line =
    frequency
      [ (3, map3 (fun o t m -> "[" ^ o ^ "]" ^ t ^ m) os tag msg);
        ( 3,
          map4
            (fun b l d (sep, m) -> b ^ l ^ d ^ sep ^ m)
            blanks
            (oneofl [ "Level "; "Level"; "level "; "Level  " ])
            digits
            (pair (oneofl [ ": "; ":"; " : "; ": \r" ]) msg) );
        (2, map (String.concat "") (list_size (0 -- 6) fragment)) ]
  in
  map (String.concat "\n") (list_size (0 -- 8) line)

let prop_monitor_matches_regexes =
  QCheck.Test.make ~name:"log monitor matches the reference regexes" ~count:2000
    (QCheck.make ~print:String.escaped gen_log)
    (fun text -> List.map show_detection (Monitor.scan text) = reference_scan text)

let test_crash_dedup_key () =
  let mk op kind =
    {
      Crash.os = "Zephyr";
      kind;
      operation = op;
      scope = "kernel";
      message = "m";
      backtrace = [];
      detected_by = Crash.Exception_monitor;
      program = "";
      iteration = 0;
    }
  in
  Alcotest.(check bool) "same bug same key" true
    (Crash.dedup_key (mk "f" Crash.Kernel_panic) = Crash.dedup_key (mk "f" Crash.Kernel_panic));
  Alcotest.(check bool) "different op different key" true
    (Crash.dedup_key (mk "f" Crash.Kernel_panic) <> Crash.dedup_key (mk "g" Crash.Kernel_panic));
  Alcotest.(check bool) "different kind different key" true
    (Crash.dedup_key (mk "f" Crash.Kernel_panic)
    <> Crash.dedup_key (mk "f" Crash.Kernel_assertion))

let test_crash_ledger () =
  let mk op iteration =
    {
      Crash.os = "Zephyr";
      kind = Crash.Kernel_panic;
      operation = op;
      scope = "kernel";
      message = "m";
      backtrace = [];
      detected_by = Crash.Log_monitor;
      program = "";
      iteration;
    }
  in
  let l = Crash.Ledger.create () in
  Alcotest.(check bool) "first g is new" true (Crash.Ledger.add l (mk "g" 1));
  Alcotest.(check bool) "first f is new" true (Crash.Ledger.add l (mk "f" 2));
  Alcotest.(check bool) "second g is known" false (Crash.Ledger.add l (mk "g" 3));
  Crash.Ledger.add_all l [ mk "f" 4; mk "h" 5; mk "h" 6 ];
  Alcotest.(check int) "distinct" 3 (Crash.Ledger.distinct l);
  Alcotest.(check (list (pair string int)))
    "first record per key, in discovery order"
    [ ("g", 1); ("f", 2); ("h", 5) ]
    (List.map (fun c -> (c.Crash.operation, c.Crash.iteration)) (Crash.Ledger.to_list l));
  Crash.Ledger.clear l;
  Alcotest.(check int) "cleared" 0 (Crash.Ledger.distinct l);
  Alcotest.(check bool) "new again after clear" true (Crash.Ledger.add l (mk "g" 7))

let test_campaign_smoke () =
  let build, _, _ = Lazy.force zephyr_env in
  ignore build;
  (* A fresh build: campaigns mutate board state. *)
  let build = Osbuild.make ~board_profile:Eof_hw.Profiles.stm32f4_disco Zephyr.spec in
  let config = { Campaign.default_config with iterations = 120; seed = 99L } in
  match Campaign.run config build with
  | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)
  | Ok o ->
    Alcotest.(check int) "all iterations ran" 120 o.Campaign.iterations_done;
    Alcotest.(check bool) "coverage found" true (o.Campaign.coverage > 0);
    Alcotest.(check bool) "programs executed" true (o.Campaign.executed_programs > 0);
    Alcotest.(check bool) "series sampled" true (List.length o.Campaign.series > 5);
    Alcotest.(check bool) "series monotonic" true
      (let rec mono = function
         | (a : Campaign.sample) :: (b :: _ as rest) ->
           a.Campaign.coverage <= b.Campaign.coverage && mono rest
         | _ -> true
       in
       mono o.Campaign.series)

let test_campaign_deterministic () =
  let run () =
    let build = Osbuild.make ~board_profile:Eof_hw.Profiles.stm32f4_disco Zephyr.spec in
    match
      Campaign.run { Campaign.default_config with iterations = 80; seed = 7L } build
    with
    | Ok o -> (o.Campaign.coverage, o.Campaign.crash_events, o.Campaign.executed_programs)
    | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)
  in
  Alcotest.(check bool) "same seed, same outcome" true (run () = run ())

let test_campaign_finds_zephyr_bugs () =
  (* Union over two seeds, as the evaluation protocol does: single-seed
     bug sets vary. *)
  let run seed =
    let build = Osbuild.make ~board_profile:Eof_hw.Profiles.stm32f4_disco Zephyr.spec in
    let config = { Campaign.default_config with iterations = 2000; seed } in
    match Campaign.run config build with
    | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)
    | Ok o -> Eof_expt.Targets.found_ids o.Campaign.crashes
  in
  let ids = List.sort_uniq compare (run 42L @ run 1337L) in
  Alcotest.(check bool)
    (Printf.sprintf "found several Zephyr bugs (got {%s})"
       (String.concat "," (List.map string_of_int ids)))
    true
    (List.length ids >= 3)

let test_campaign_api_filter () =
  let build =
    Osbuild.make
      ~instrument:(Osbuild.Instrument_only [ Freertos.json_module ])
      ~board_profile:Eof_hw.Profiles.esp32_devkitc Freertos.spec
  in
  let config =
    {
      Campaign.default_config with
      iterations = 100;
      seed = 1L;
      api_filter = Some [ "json_parse" ];
    }
  in
  match Campaign.run config build with
  | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)
  | Ok o ->
    Alcotest.(check bool) "json coverage only" true (o.Campaign.coverage > 0);
    (* Only the JSON block records edges, so coverage stays well below a
       full-system run's. *)
    Alcotest.(check bool) "confined" true (o.Campaign.coverage < 150)

let test_liveness_restore_over_session () =
  let build = Osbuild.make ~board_profile:Eof_hw.Profiles.stm32f4_disco Zephyr.spec in
  let machine =
    match Eof_agent.Machine.create build with Ok m -> m | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)
  in
  let board = Osbuild.board build in
  (* Damage flash, then restore through the documented procedure. *)
  Eof_hw.Flash.corrupt (Eof_hw.Board.flash board)
    ~addr:(Eof_hw.Flash.base (Eof_hw.Board.flash board) + 0x5000)
    "XX";
  Alcotest.(check bool) "damaged" false (Eof_hw.Board.boot_ok board);
  (match Liveness.restore machine ~build with
   | Ok n -> Alcotest.(check int) "three partitions" 3 n
   | Error e -> Alcotest.fail (Liveness.error_to_string e));
  Alcotest.(check bool) "boots" true (Eof_hw.Board.boot_ok board)

let test_liveness_watchdog_timeout () =
  let build = Osbuild.make ~board_profile:Eof_hw.Profiles.stm32f4_disco Zephyr.spec in
  let transport = Eof_debug.Transport.create () in
  let machine =
    match Eof_agent.Machine.create ~transport build with
    | Ok m -> m
    | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)
  in
  let wd = Liveness.create () in
  (match Liveness.check wd machine with
   | Liveness.First_observation -> ()
   | _ -> Alcotest.fail "expected first observation");
  (* A dead link: every exchange from here on is dropped. *)
  Eof_debug.Transport.set_injector transport
    (Some
       (Eof_debug.Inject.create
          { Eof_debug.Inject.default_config with kill_after = Some 0 }));
  (match Liveness.check wd machine with
   | Liveness.Connection_lost -> ()
   | _ -> Alcotest.fail "expected connection-lost verdict");
  Eof_debug.Transport.set_injector transport None

let prop_mutation_grows_bounded =
  QCheck.Test.make ~name:"mutation keeps programs bounded and valid" ~count:50
    QCheck.(int_bound 1000)
    (fun seed ->
      let gen = make_gen (Int64.of_int (seed + 100)) in
      let prog = ref (Gen.generate gen ~max_len:6) in
      let ok = ref true in
      for _ = 1 to 40 do
        prog := Gen.mutate gen !prog ~max_len:12;
        ok := !ok && Prog.validate !prog = Ok () && List.length !prog >= 1
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "generate valid programs" `Quick test_generate_valid_programs;
    Alcotest.test_case "mutate preserves validity" `Quick test_mutate_preserves_validity;
    Alcotest.test_case "generation respects dependencies" `Quick
      test_generation_respects_dependencies;
    Alcotest.test_case "i2s substitution" `Quick test_substitute;
    Alcotest.test_case "int hints used" `Quick test_int_hints_used;
    Alcotest.test_case "corpus dedup/pick" `Quick test_corpus_dedup_and_pick;
    Alcotest.test_case "corpus eviction" `Quick test_corpus_eviction;
    Alcotest.test_case "corpus merge dedups across shards" `Quick
      test_corpus_merge_dedup_across_shards;
    Alcotest.test_case "corpus merge eviction order" `Quick
      test_corpus_merge_eviction_order;
    Alcotest.test_case "feedback merge" `Quick test_feedback_merge;
    QCheck_alcotest.to_alcotest prop_corpus_cursor_merge;
    Alcotest.test_case "log monitor patterns" `Quick test_monitor_patterns;
    QCheck_alcotest.to_alcotest prop_monitor_matches_regexes;
    Alcotest.test_case "crash dedup key" `Quick test_crash_dedup_key;
    Alcotest.test_case "crash ledger" `Quick test_crash_ledger;
    Alcotest.test_case "campaign smoke" `Quick test_campaign_smoke;
    Alcotest.test_case "campaign deterministic" `Quick test_campaign_deterministic;
    Alcotest.test_case "campaign finds zephyr bugs" `Slow test_campaign_finds_zephyr_bugs;
    Alcotest.test_case "campaign api filter" `Quick test_campaign_api_filter;
    Alcotest.test_case "liveness restore over session" `Quick
      test_liveness_restore_over_session;
    Alcotest.test_case "liveness watchdog timeout" `Quick test_liveness_watchdog_timeout;
    QCheck_alcotest.to_alcotest prop_mutation_grows_bounded;
  ]

(* --- interrupt-path extension ------------------------------------------ *)

let test_irq_injection_covers_isr () =
  let build = Osbuild.make ~board_profile:Eof_hw.Profiles.stm32f4_disco Zephyr.spec in
  let config =
    { Campaign.default_config with iterations = 200; seed = 2L; irq_injection = true }
  in
  match Campaign.run config build with
  | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)
  | Ok o ->
    let block = Option.get (Osbuild.module_block build "zephyr/irq") in
    let sitemap = Osbuild.sitemap build in
    let v = Eof_cov.Sancov.variants_per_site in
    let covered = ref 0 in
    for i = 0 to block.Eof_cov.Sitemap.count - 1 do
      let site_idx =
        Option.get
          (Eof_cov.Sitemap.index_of_addr sitemap (Eof_cov.Sitemap.site_addr block i))
      in
      for var = 0 to v - 1 do
        if Eof_util.Bitset.mem o.Campaign.coverage_bitmap ((site_idx * v) + var) then
          incr covered
      done
    done;
    Alcotest.(check bool) "ISR path covered under injection" true (!covered > 0)

let test_no_irq_injection_by_default () =
  (* The paper scopes interrupts out; the default config must not drive
     them spontaneously (only fuzzed *_irq_enable calls arm other pins,
     and nothing injects edges). *)
  let build = Osbuild.make ~board_profile:Eof_hw.Profiles.stm32f4_disco Zephyr.spec in
  let config = { Campaign.default_config with iterations = 150; seed = 2L } in
  match Campaign.run config build with
  | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)
  | Ok o ->
    let block = Option.get (Osbuild.module_block build "zephyr/irq") in
    let sitemap = Osbuild.sitemap build in
    let v = Eof_cov.Sancov.variants_per_site in
    (* Sites 0-4 are the ISR body; they need an actual edge. *)
    let isr_covered = ref 0 in
    for i = 0 to 4 do
      let site_idx =
        Option.get
          (Eof_cov.Sitemap.index_of_addr sitemap (Eof_cov.Sitemap.site_addr block i))
      in
      for var = 0 to v - 1 do
        if Eof_util.Bitset.mem o.Campaign.coverage_bitmap ((site_idx * v) + var) then
          incr isr_covered
      done
    done;
    Alcotest.(check int) "ISR body unreached without injection" 0 !isr_covered

let suite =
  suite
  @ [
      Alcotest.test_case "irq injection covers ISR" `Quick test_irq_injection_covers_isr;
      Alcotest.test_case "no irq coverage by default" `Quick test_no_irq_injection_by_default;
    ]

(* --- resilience over a lossy probe link -------------------------------- *)

(* A lossy probe: the seeded fault schedule at a 1% burst rate. *)
let lossy_link seed = { Eof_debug.Inject.default_config with rate = 0.01; seed }

let test_campaign_survives_flaky_link () =
  let build = Osbuild.make ~board_profile:Eof_hw.Profiles.stm32f4_disco Zephyr.spec in
  let bus = Eof_obs.Obs.create () in
  let machine =
    match Eof_agent.Machine.create ~obs:bus ~inject:(lossy_link 77L) build with
    | Ok m -> m
    | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)
  in
  let config = { Campaign.default_config with iterations = 150; seed = 3L } in
  match Campaign.run ~machine config build with
  | Error e -> Alcotest.fail ("flaky link killed the campaign: " ^ Eof_util.Eof_error.to_string e)
  | Ok o ->
    Alcotest.(check int) "all iterations" 150 o.Campaign.iterations_done;
    Alcotest.(check bool) "made progress" true (o.Campaign.coverage > 0);
    (* Losses now surface at the link layer: the session's retry rung
       cures lone flaky timeouts before they ever reach the campaign's
       escalation ladder, so campaign-level reflashes are no longer the
       evidence — transport timeouts plus a finished budget are. *)
    Alcotest.(check bool) "losses happened and were recovered" true
      (Eof_obs.Obs.counter_value bus "transport.timeouts" > 0
      && Eof_obs.Obs.counter_value bus "session.retries" > 0)

let suite =
  suite
  @ [ Alcotest.test_case "campaign survives flaky link" `Quick
        test_campaign_survives_flaky_link ]

(* --- crash reports ------------------------------------------------------ *)

let test_report_roundtrip () =
  let crash =
    {
      Crash.os = "Zephyr";
      kind = Crash.Kernel_panic;
      operation = "k_heap_alloc";
      scope = "kheap";
      message = "unaligned free-list head";
      backtrace = [ "a.c : f : 10"; "b.c : g : 20" ];
      detected_by = Crash.Exception_monitor;
      program = "0: k_heap_init(8) -> kheap";
      iteration = 7;
    }
  in
  let text = Eof_core.Report.crash_to_text crash in
  let contains needle =
    let nl = String.length needle and hl = String.length text in
    let rec go i = i + nl <= hl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains needle))
    [ "Zephyr"; "Kernel Panic"; "k_heap_alloc()"; "unaligned free-list";
      "Level 2: b.c : g : 20"; "k_heap_init(8)" ];
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "eof-report-test" in
  (match Eof_core.Report.save_crashes ~dir [ crash; { crash with Crash.operation = "other/op" } ] with
   | Ok [ p1; p2 ] ->
     Alcotest.(check bool) "file 1" true (Sys.file_exists p1);
     Alcotest.(check bool) "file 2 sanitized" true
       (Filename.basename p2 = "crash-02-other_op.txt")
   | Ok _ -> Alcotest.fail "wrong path count"
   | Error e -> Alcotest.fail e)

let suite = suite @ [ Alcotest.test_case "crash report roundtrip" `Quick test_report_roundtrip ]

(* --- cross-architecture / cross-endianness campaigns -------------------- *)

let test_campaign_on_riscv () =
  (* FreeRTOS on the RISC-V devkit (Table 1's second EOF row). *)
  let build = Osbuild.make ~board_profile:Eof_hw.Profiles.hifive1 Freertos.spec in
  let config = { Campaign.default_config with iterations = 150; seed = 12L } in
  match Campaign.run config build with
  | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)
  | Ok o ->
    Alcotest.(check bool) "coverage on riscv" true (o.Campaign.coverage > 0);
    Alcotest.(check int) "iterations" 150 o.Campaign.iterations_done

let test_campaign_on_big_endian_board () =
  (* A PowerPC-style big-endian board: the whole stack — wire format,
     coverage records, cmp ring, RSP register dumps — must survive the
     byte-order flip. *)
  let profile =
    {
      Eof_hw.Board.name = "mpc5554-devkit";
      arch = Eof_hw.Arch.powerpc;
      flash_base = 0x0000_0000;
      flash_size = 2 * 1024 * 1024;
      sector_size = 16 * 1024;
      ram_base = 0x4000_0000;
      ram_size = 192 * 1024;
      cpu_mhz = 132;
      debug_port = Eof_hw.Board.Jtag;
      peripheral_emulation = false;
    }
  in
  let build = Osbuild.make ~board_profile:profile Zephyr.spec in
  let config = { Campaign.default_config with iterations = 200; seed = 13L } in
  match Campaign.run config build with
  | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)
  | Ok o ->
    Alcotest.(check bool) "coverage on big-endian" true (o.Campaign.coverage > 20);
    Alcotest.(check bool) "programs executed" true (o.Campaign.executed_programs > 150)

let suite =
  suite
  @ [
      Alcotest.test_case "campaign on RISC-V board" `Quick test_campaign_on_riscv;
      Alcotest.test_case "campaign on big-endian board" `Quick
        test_campaign_on_big_endian_board;
    ]

(* --- corpus persistence -------------------------------------------------- *)

let test_corpus_io_roundtrip () =
  let _, table, spec = Lazy.force zephyr_env in
  let gen = make_gen 21L in
  let progs = List.init 20 (fun _ -> Gen.generate gen ~max_len:8) in
  let path = Filename.temp_file "eof-corpus" ".txt" in
  (match Eof_core.Corpus_io.save ~path progs with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  match Eof_core.Corpus_io.load ~path ~spec ~table with
  | Error e -> Alcotest.fail e
  | Ok (loaded, skipped) ->
    Alcotest.(check int) "none skipped" 0 skipped;
    Alcotest.(check int) "all loaded" (List.length progs) (List.length loaded);
    List.iter2
      (fun a b -> Alcotest.(check int) "prog identical" (Prog.hash a) (Prog.hash b))
      progs loaded

let test_corpus_io_skips_stale () =
  let _, table, spec = Lazy.force zephyr_env in
  let text =
    "# eof corpus v1\n\
     prog\n\
    \  call k_sem_init int=1 int=5\n\
     end\n\
     prog\n\
    \  call api_that_no_longer_exists int=1\n\
     end\n\
     prog\n\
    \  call k_sem_take res=0\n\
     end\n"
    (* the third program's res=0 refers to a call that doesn't produce a sem *)
  in
  let path = Filename.temp_file "eof-corpus" ".txt" in
  let oc = open_out path in
  output_string oc text;
  close_out oc;
  match Eof_core.Corpus_io.load ~path ~spec ~table with
  | Error e -> Alcotest.fail e
  | Ok (loaded, skipped) ->
    Alcotest.(check int) "one good prog" 1 (List.length loaded);
    Alcotest.(check int) "two skipped" 2 skipped

let prop_corpus_io_roundtrip =
  QCheck.Test.make ~name:"corpus io roundtrip (generated programs)" ~count:50
    QCheck.(int_bound 10000)
    (fun seed ->
      let _, table, spec = Lazy.force zephyr_env in
      let gen = make_gen (Int64.of_int (seed + 500)) in
      let prog = Gen.generate gen ~max_len:10 in
      match
        Eof_core.Corpus_io.prog_of_lines ~spec ~table
          (String.split_on_char '\n' (Eof_core.Corpus_io.prog_to_text prog)
          |> List.filter (fun l ->
                 let t = String.trim l in
                 t <> "" && t <> "prog" && t <> "end"))
      with
      | Ok prog' -> Prog.hash prog = Prog.hash prog'
      | Error _ -> false)

let suite =
  suite
  @ [
      Alcotest.test_case "corpus io roundtrip" `Quick test_corpus_io_roundtrip;
      Alcotest.test_case "corpus io skips stale" `Quick test_corpus_io_skips_stale;
      QCheck_alcotest.to_alcotest prop_corpus_io_roundtrip;
    ]

(* --- staged devices drive the cmp gradient ------------------------------ *)

let test_statemach_solvable_by_eof_only () =
  (* The staged configuration sequence is the fixture that separates
     cmp-guided EOF from EOF-nf: with the same modest budget, EOF must
     climb visibly deeper into the sequence. *)
  let run feedback =
    let build = Osbuild.make ~board_profile:Eof_hw.Profiles.stm32f4_disco Zephyr.spec in
    let config =
      {
        Campaign.default_config with
        iterations = 800;
        seed = 47L;
        feedback;
        api_filter = Some [ "zpipe_open"; "zpipe_step"; "k_yield" ];
      }
    in
    match Campaign.run config build with
    | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)
    | Ok o ->
      (* Count solved stages: the per-stage advance edges. *)
      let block = Option.get (Osbuild.module_block build "zephyr/pipe") in
      let sitemap = Osbuild.sitemap build in
      let v = Eof_cov.Sancov.variants_per_site in
      let solved = ref 0 in
      for stage = 0 to 9 do
        let site = Eof_cov.Sitemap.site_addr block (2 + 10 + stage) in
        match Eof_cov.Sitemap.index_of_addr sitemap site with
        | Some idx ->
          if Eof_util.Bitset.mem o.Campaign.coverage_bitmap (idx * v) then incr solved
        | None -> ()
      done;
      !solved
  in
  let eof = run true and nf = run false in
  Alcotest.(check bool)
    (Printf.sprintf "EOF climbs deeper (EOF %d stages vs EOF-nf %d)" eof nf)
    true
    (eof > nf && eof >= 3)

let suite =
  suite
  @ [ Alcotest.test_case "staged device needs cmp guidance" `Slow
        test_statemach_solvable_by_eof_only ]

(* --- batched vs unbatched debug link --------------------------------- *)

module Dsession = Eof_debug.Session
module Transport = Eof_debug.Transport

let run_linked ~batch_link ~iterations ~seed =
  let build = Osbuild.make ~board_profile:Eof_hw.Profiles.stm32f4_disco Zephyr.spec in
  let transport = Transport.create () in
  let machine =
    match Eof_agent.Machine.create ~transport build with
    | Ok m -> m
    | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)
  in
  let config = { Campaign.default_config with iterations; seed; batch_link } in
  match Campaign.run ~machine config build with
  | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)
  | Ok o ->
    ( o,
      Transport.exchanges transport,
      Dsession.requests (Eof_agent.Machine.session machine),
      Transport.elapsed_us transport )

let run_native ~batch_link ~iterations ~seed =
  let build = Osbuild.make ~board_profile:Eof_hw.Profiles.stm32f4_disco Zephyr.spec in
  let config =
    { Campaign.default_config with
      iterations; seed; batch_link; backend = Eof_agent.Machine.Native }
  in
  match Campaign.run config build with
  | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)
  | Ok o -> o

let test_batched_equals_unbatched () =
  (* The tentpole invariant: batching changes link traffic, not fuzzing
     behaviour. Same seed, bit-identical coverage and crashes — and the
     native backend, where [batch_link] picks between the same two drain
     modes, must agree with both. *)
  let ob, exb, rqb, elb = run_linked ~batch_link:true ~iterations:120 ~seed:11L in
  let ou, exu, rqu, elu = run_linked ~batch_link:false ~iterations:120 ~seed:11L in
  List.iter
    (fun (mode, o) ->
      let label what = Printf.sprintf "%s: same %s" mode what in
      Alcotest.(check int) (label "coverage") ou.Campaign.coverage o.Campaign.coverage;
      Alcotest.(check bool) (label "coverage bitmap") true
        (Eof_util.Bitset.to_list ou.Campaign.coverage_bitmap
        = Eof_util.Bitset.to_list o.Campaign.coverage_bitmap);
      Alcotest.(check int) (label "executed programs") ou.Campaign.executed_programs
        o.Campaign.executed_programs;
      Alcotest.(check int) (label "crash events") ou.Campaign.crash_events
        o.Campaign.crash_events;
      Alcotest.(check bool) (label "deduplicated crashes") true
        (ou.Campaign.crashes = o.Campaign.crashes);
      Alcotest.(check int) (label "iterations") ou.Campaign.iterations_done
        o.Campaign.iterations_done)
    [
      ("link batched", ob);
      ("native fused", run_native ~batch_link:true ~iterations:120 ~seed:11L);
      ("native per-request", run_native ~batch_link:false ~iterations:120 ~seed:11L);
    ];
  (* And the link got dramatically quieter: the acceptance bar is >= 3x
     fewer exchanges and requests for the same campaign. *)
  Alcotest.(check bool)
    (Printf.sprintf "exchanges drop >=3x (%d -> %d)" exu exb)
    true
    (exu >= 3 * exb);
  Alcotest.(check bool)
    (Printf.sprintf "requests drop >=3x (%d -> %d)" rqu rqb)
    true
    (rqu >= 3 * rqb);
  Alcotest.(check bool)
    (Printf.sprintf "link time drops (%.0fus -> %.0fus)" elu elb)
    true
    (elb < elu)

let test_batched_flaky_deterministic () =
  (* Cross-mode equality is impossible under a flaky link (the two modes
     make different numbers of exchanges, so the loss pattern differs),
     but a batched campaign over a lossy link must still be deterministic
     and must survive to the end of its budget. *)
  let run () =
    let build = Osbuild.make ~board_profile:Eof_hw.Profiles.stm32f4_disco Zephyr.spec in
    let bus = Eof_obs.Obs.create () in
    let machine =
      match Eof_agent.Machine.create ~obs:bus ~inject:(lossy_link 0xF1AA7L) build with
      | Ok m -> m
      | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)
    in
    (* Same loss rate as the tier-1 survival test above: a board
       re-flash is dozens of exchanges, so loss rates much past 1%
       compound into unrecoverable restore failures in either link
       mode — that regime is out of scope here. *)
    let config =
      { Campaign.default_config with iterations = 100; seed = 5L; batch_link = true }
    in
    match Campaign.run ~machine config build with
    | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)
    | Ok o ->
      ( o.Campaign.coverage,
        o.Campaign.crash_events,
        o.Campaign.executed_programs,
        Eof_obs.Obs.counter_value bus "transport.timeouts",
        o.Campaign.iterations_done,
        Eof_util.Bitset.to_list o.Campaign.coverage_bitmap )
  in
  let (c1, ce1, ex1, to1, it1, bm1) = run () in
  let (c2, ce2, ex2, to2, it2, bm2) = run () in
  Alcotest.(check bool) "flaky batched run is deterministic" true
    ((c1, ce1, ex1, to1, it1) = (c2, ce2, ex2, to2, it2) && bm1 = bm2);
  Alcotest.(check int) "ran to budget" 100 it1;
  Alcotest.(check bool) "losses actually happened" true (to1 > 0);
  Alcotest.(check bool) "still found coverage" true (c1 > 0)

let suite =
  suite
  @ [
      Alcotest.test_case "batched equals unbatched" `Quick test_batched_equals_unbatched;
      Alcotest.test_case "batched flaky deterministic" `Quick
        test_batched_flaky_deterministic;
    ]

(* --- liveness stall streaks and restore edge cases --------------------- *)

module Obs = Eof_obs.Obs

let fresh_machine ?obs () =
  let build = Osbuild.make ~board_profile:Eof_hw.Profiles.stm32f4_disco Zephyr.spec in
  match Eof_agent.Machine.create ?obs build with
  | Ok m -> (build, m)
  | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)

let test_stall_requires_streak () =
  (* The PC of a freshly connected target does not move between reads,
     so repeated checks walk the streak up deterministically. *)
  let _, machine = fresh_machine () in
  let wd = Liveness.create () in
  (match Liveness.check wd machine with
   | Liveness.First_observation -> ()
   | _ -> Alcotest.fail "first check arms the watchdog");
  (* Repeats below the threshold are Alive, not a stall. *)
  for i = 1 to 2 do
    match Liveness.check wd machine with
    | Liveness.Alive -> Alcotest.(check int) "streak grows" i (Liveness.stall_streak wd)
    | v ->
      Alcotest.fail
        (Printf.sprintf "repeat %d must stay alive (streak %d), got %s" i
           (Liveness.stall_streak wd)
           (match v with
            | Liveness.Pc_stalled _ -> "pc-stalled"
            | Liveness.Connection_lost -> "connection-lost"
            | Liveness.First_observation -> "first-observation"
            | Liveness.Alive -> "alive"))
  done;
  (* The third consecutive repeat crosses the default threshold. *)
  (match Liveness.check wd machine with
   | Liveness.Pc_stalled _ -> ()
   | _ -> Alcotest.fail "threshold-th repeat must declare a stall")

let test_stall_streak_resets_on_progress () =
  let _, machine = fresh_machine () in
  let wd = Liveness.create () in
  ignore (Liveness.check wd machine);
  ignore (Liveness.check wd machine);
  ignore (Liveness.check wd machine);
  Alcotest.(check int) "two repeats banked" 2 (Liveness.stall_streak wd);
  (* Any PC movement wipes the streak: run the target forward. *)
  (match Eof_agent.Machine.continue_ machine with
   | Ok _ -> ()
   | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e));
  (match Liveness.check wd machine with
   | Liveness.Alive -> ()
   | _ -> Alcotest.fail "new PC must be alive");
  Alcotest.(check int) "streak cleared" 0 (Liveness.stall_streak wd);
  (* And the stall needs a full fresh streak again. *)
  (match Liveness.check wd machine with
   | Liveness.Alive -> ()
   | _ -> Alcotest.fail "single repeat after progress is not a stall");
  (* reset clears even the armed LastPC. *)
  Liveness.reset wd;
  (match Liveness.check wd machine with
   | Liveness.First_observation -> ()
   | _ -> Alcotest.fail "reset must disarm the watchdog")

let flash_ops events =
  List.filter_map
    (function
      | _, _, Obs.Event.Flash_op { op; addr; len } -> Some (op, addr, len)
      | _ -> None)
    events

let test_restore_partitions_odd_final_chunk () =
  let bus = Obs.create () in
  let sink, events = Obs.memory_sink () in
  Obs.add_sink bus sink;
  let build, machine = fresh_machine ~obs:bus () in
  let flash_base =
    (Eof_hw.Board.profile (Osbuild.board build)).Eof_hw.Board.flash_base
  in
  (* A 3000-byte blob crosses one full 2048-byte packet and leaves an
     odd 952-byte tail. *)
  let table = [ { Eof_hw.Partition.name = "odd"; offset = 0; size = 3000 } ] in
  let image =
    Eof_hw.Image.synthesize ~table ~seed:1L ~payloads:[ ("odd", String.make 3000 'k') ] ()
  in
  (match Liveness.restore_partitions machine ~flash_base ~image ~table with
   | Ok n -> Alcotest.(check int) "one partition" 1 n
   | Error e -> Alcotest.fail (Liveness.error_to_string e));
  let writes =
    List.filter_map
      (fun (op, addr, len) -> if op = "write" then Some (addr, len) else None)
      (flash_ops (events ()))
  in
  (match writes with
   | [ (a1, 2048); (a2, 952) ] ->
     Alcotest.(check int) "first chunk at base" flash_base a1;
     Alcotest.(check int) "tail follows" (flash_base + 2048) a2
   | ws ->
     Alcotest.fail
       (Printf.sprintf "expected 2048+952 writes, got [%s]"
          (String.concat "; "
             (List.map (fun (a, l) -> Printf.sprintf "0x%x:%d" a l) ws))));
  (* One Reflash_partition event carrying the blob size. *)
  match
    List.filter_map
      (function
        | _, _, Obs.Event.Reflash_partition { partition; bytes } -> Some (partition, bytes)
        | _ -> None)
      (events ())
  with
  | [ ("odd", 3000) ] -> ()
  | _ -> Alcotest.fail "expected one reflash event for 'odd' (3000 bytes)"

let test_restore_partitions_missing_blob () =
  let build, machine = fresh_machine () in
  let flash_base =
    (Eof_hw.Board.profile (Osbuild.board build)).Eof_hw.Board.flash_base
  in
  let table = [ { Eof_hw.Partition.name = "present"; offset = 0; size = 2048 } ] in
  let image = Eof_hw.Image.synthesize ~table ~seed:1L () in
  (* The table handed to restore names a partition the image has no blob
     for — the typed error must say which one. *)
  let ghost = { Eof_hw.Partition.name = "ghost"; offset = 2048; size = 2048 } in
  match Liveness.restore_partitions machine ~flash_base ~image ~table:(table @ [ ghost ]) with
  | Error { Eof_util.Eof_error.kind = Missing_blob "ghost"; _ } -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Liveness.error_to_string e)
  | Ok _ -> Alcotest.fail "missing blob must fail"

let test_restore_emits_reflash_events () =
  let bus = Obs.create () in
  let sink, events = Obs.memory_sink () in
  Obs.add_sink bus sink;
  let build, machine = fresh_machine ~obs:bus () in
  let board = Osbuild.board build in
  Eof_hw.Flash.corrupt (Eof_hw.Board.flash board)
    ~addr:(Eof_hw.Flash.base (Eof_hw.Board.flash board) + 0x5000)
    "XX";
  (match Liveness.restore machine ~build with
   | Ok 3 -> ()
   | Ok n -> Alcotest.fail (Printf.sprintf "expected 3 partitions, got %d" n)
   | Error e -> Alcotest.fail (Liveness.error_to_string e));
  Alcotest.(check bool) "boots" true (Eof_hw.Board.boot_ok board);
  let evs = events () in
  let reflashes =
    List.filter_map
      (function
        | _, _, Obs.Event.Reflash_partition { partition; _ } -> Some partition
        | _ -> None)
      evs
  in
  Alcotest.(check int) "one event per partition" 3 (List.length reflashes);
  let expected =
    List.map (fun (e : Eof_hw.Partition.entry) -> e.Eof_hw.Partition.name)
      (Osbuild.image build).Eof_hw.Image.table
  in
  Alcotest.(check bool) "partition names in table order" true (reflashes = expected);
  (match
     List.find_opt
       (function _, _, Obs.Event.Restore_done _ -> true | _ -> false)
       evs
   with
   | Some (_, _, Obs.Event.Restore_done { partitions = 3 }) -> ()
   | _ -> Alcotest.fail "expected a Restore_done{partitions=3} event");
  (* The reset that follows the reflash is also on the trace. *)
  Alcotest.(check bool) "reset event present" true
    (List.exists (function _, _, Obs.Event.Reset_board -> true | _ -> false) evs)

(* A harness bug must not look like a dead board: an exception raised
   mid-iteration (here by an observer sink on the first payload event)
   escapes [Campaign.run] instead of becoming a quiet abort. *)
exception Sink_failed

let test_step_exception_escapes () =
  let build = Osbuild.make ~board_profile:Eof_hw.Profiles.stm32f4_disco Zephyr.spec in
  let bus = Obs.create () in
  Obs.add_sink bus
    (Obs.sink (fun ~t:_ ~board:_ ~tenant:_ -> function
       | Obs.Event.Payload _ -> raise Sink_failed
       | _ -> ()));
  let config = { Campaign.default_config with iterations = 20; seed = 7L } in
  match Campaign.run ~obs:bus config build with
  | exception Sink_failed -> ()
  | Ok o ->
    Alcotest.failf "exception swallowed (abort_cause %s)"
      (match o.Campaign.abort_cause with
       | Some e -> Eof_util.Eof_error.to_string e
       | None -> "none")
  | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)

let test_campaign_obs_does_not_perturb () =
  let build = Osbuild.make ~board_profile:Eof_hw.Profiles.stm32f4_disco Zephyr.spec in
  let config = { Campaign.default_config with iterations = 80; seed = 7L } in
  let fingerprint (o : Campaign.outcome) =
    ( o.Campaign.coverage,
      o.Campaign.crash_events,
      o.Campaign.executed_programs,
      o.Campaign.iterations_done,
      o.Campaign.corpus_size,
      Eof_util.Bitset.to_list o.Campaign.coverage_bitmap )
  in
  let bare =
    match Campaign.run config build with Ok o -> fingerprint o | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)
  in
  (* A sinkless bus must not change a single outcome field... *)
  let null_sink =
    match Campaign.run ~obs:(Obs.create ()) config build with
    | Ok o -> fingerprint o
    | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)
  in
  Alcotest.(check bool) "null-sink outcome identical" true (bare = null_sink);
  (* ...and neither must full event capture: observation is a reporting
     plane, not a data plane. *)
  let bus = Obs.create () in
  let sink, events = Obs.memory_sink () in
  Obs.add_sink bus sink;
  let observed =
    match Campaign.run ~obs:bus config build with
    | Ok o -> fingerprint o
    | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)
  in
  Alcotest.(check bool) "observed outcome identical" true (bare = observed);
  Alcotest.(check bool) "events actually captured" true (List.length (events ()) > 0);
  Alcotest.(check int) "payload counter matches" 80
    (Obs.counter_value bus "campaign.payloads")

let suite =
  suite
  @ [
      Alcotest.test_case "stall requires a streak" `Quick test_stall_requires_streak;
      Alcotest.test_case "stall streak resets on progress" `Quick
        test_stall_streak_resets_on_progress;
      Alcotest.test_case "restore odd final chunk" `Quick
        test_restore_partitions_odd_final_chunk;
      Alcotest.test_case "restore missing blob" `Quick test_restore_partitions_missing_blob;
      Alcotest.test_case "restore emits reflash events" `Quick
        test_restore_emits_reflash_events;
      Alcotest.test_case "obs does not perturb campaign" `Quick
        test_campaign_obs_does_not_perturb;
      Alcotest.test_case "step exception escapes run" `Quick
        test_step_exception_escapes;
    ]

(* --- corpus scheduling, transplantation, golden generator stream ----- *)

let freertos_env = os_env Freertos.spec

let zephyr_target () =
  let build, table, _ = Lazy.force zephyr_env in
  Corpus.target_of ~os:(Osbuild.os_name build) ~table

let seed_progs n seed =
  let gen = make_gen seed in
  List.init n (fun _ -> Gen.generate gen ~max_len:8)

let test_energy_schedule_budgets () =
  let target = zephyr_target () in
  let corpus =
    Corpus.create ~rng:(Eof_util.Rng.create 41L) ~schedule:Corpus.Energy ~target ()
  in
  (* A rare find (1-4 new edges) lands on the frontier; a broad find
     does not. *)
  let rare, broad =
    match seed_progs 2 41L with
    | [ a; b ] -> (a, b)
    | _ -> Alcotest.fail "expected two seeds"
  in
  Alcotest.(check bool) "rare admitted" true
    (Corpus.add corpus ~target ~prog:rare ~new_edges:2 ~crashed:false);
  Alcotest.(check bool) "broad admitted" true
    (Corpus.add corpus ~target ~prog:broad ~new_edges:32 ~crashed:false);
  Alcotest.(check bool) "rare find on frontier" true
    (Corpus.on_frontier corpus ~target rare);
  Alcotest.(check bool) "broad find off frontier" true
    (not (Corpus.on_frontier corpus ~target broad));
  Alcotest.(check int) "frontier holds one" 1 (Corpus.frontier_size corpus ~target);
  (* First pick of a frontier seed maxes the bonus: frontier(2) +
     first-pick(1) + broad-or-crash(1 for the broad seed only). Energy
     is always a power of two in [1;16]. *)
  for _ = 1 to 50 do
    match Corpus.next corpus ~target with
    | None -> Alcotest.fail "non-empty corpus must schedule"
    | Some (p, energy) ->
      Alcotest.(check bool) "energy is a power of two in [1;16]" true
        (List.mem energy [ 1; 2; 4; 8; 16 ]);
      if Corpus.on_frontier corpus ~target p then
        Alcotest.(check bool) "frontier seed earns >= 4x" true (energy >= 4)
  done

let test_uniform_schedule_is_flat () =
  let target = zephyr_target () in
  let corpus = Corpus.create ~rng:(Eof_util.Rng.create 42L) ~target () in
  List.iter
    (fun p -> ignore (Corpus.add corpus ~target ~prog:p ~new_edges:2 ~crashed:true))
    (seed_progs 6 42L);
  for _ = 1 to 40 do
    match Corpus.next corpus ~target with
    | Some (_, 1) -> ()
    | Some (_, e) -> Alcotest.fail (Printf.sprintf "uniform energy %d, want 1" e)
    | None -> Alcotest.fail "non-empty corpus must schedule"
  done

let test_merge_preserves_schedule_state () =
  let target = zephyr_target () in
  let mk seed =
    Corpus.create ~rng:(Eof_util.Rng.create seed) ~schedule:Corpus.Energy ~target ()
  in
  let src = mk 7L and dst = mk 8L in
  let progs = seed_progs 5 7L in
  List.iteri
    (fun i p ->
      ignore (Corpus.add src ~target ~prog:p ~new_edges:(if i < 2 then 3 else 40) ~crashed:false))
    progs;
  (* Age one seed so its pick count is part of the transferred state. *)
  ignore (Corpus.next src ~target);
  let imported = Corpus.merge dst src ~since:0 in
  Alcotest.(check int) "all seeds imported" 5 imported;
  Alcotest.(check int) "frontier travels with the seeds"
    (Corpus.frontier_size src ~target)
    (Corpus.frontier_size dst ~target);
  List.iteri
    (fun i p ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d frontier membership preserved" i)
        (Corpus.on_frontier src ~target p)
        (Corpus.on_frontier dst ~target p))
    progs;
  (* Re-merge is a no-op: content hashes dedup. *)
  Alcotest.(check int) "re-merge imports nothing" 0 (Corpus.merge dst src ~since:0)

let retype_to_freertos prog =
  let _, ftable, fspec = Lazy.force freertos_env in
  Eof_core.Transplant.retype ~dst_spec:fspec ~dst_table:ftable prog

let retype_to_zephyr prog =
  let _, ztable, zspec = Lazy.force zephyr_env in
  Eof_core.Transplant.retype ~dst_spec:zspec ~dst_table:ztable prog

let test_transplant_validate_clean () =
  (* Every successful retype must produce a validate-clean program whose
     kept+dropped accounts for every source call. *)
  let progs = seed_progs 60 11L in
  let succeeded = ref 0 in
  List.iter
    (fun p ->
      match retype_to_freertos p with
      | None -> ()
      | Some o ->
        incr succeeded;
        Alcotest.(check int) "kept + dropped = source length" (List.length p)
          (o.Eof_core.Transplant.kept + o.Eof_core.Transplant.dropped);
        Alcotest.(check int) "kept = result length" o.Eof_core.Transplant.kept
          (List.length o.Eof_core.Transplant.prog);
        (match Prog.validate o.Eof_core.Transplant.prog with
         | Ok () -> ()
         | Error e ->
           Alcotest.fail
             ("transplant not validate-clean: " ^ e ^ "\n"
             ^ Prog.to_string o.Eof_core.Transplant.prog)))
    progs;
  Alcotest.(check bool) "transplantation finds mappings" true (!succeeded > 0)

let test_transplant_drops_unmappable () =
  (* Against an empty destination table nothing can map. *)
  let _, ztable, zspec = Lazy.force zephyr_env in
  let empty_spec = { zspec with Eof_spec.Ast.calls = [] } in
  let empty_table = { ztable with Eof_rtos.Api.entries = [] } in
  List.iter
    (fun p ->
      match
        Eof_core.Transplant.retype ~dst_spec:empty_spec ~dst_table:empty_table p
      with
      | None -> ()
      | Some _ -> Alcotest.fail "empty destination table must reject everything")
    (seed_progs 10 12L)

let test_transplant_roundtrip_stable () =
  (* FreeRTOS -> Zephyr -> FreeRTOS: after the first crossing the
     program lives in the shared signature subspace, so round-trips
     drop nothing and keep the call structure; scalars may narrow once
     (into the intersection of the two ranges), after which a second
     full round-trip is byte-identical. *)
  let structure prog =
    List.map
      (fun (c : Prog.call) ->
        ( c.Prog.api_index,
          List.map (function Prog.Res r -> Some r | _ -> None) c.Prog.args ))
      prog
  in
  let progs = seed_progs 40 13L in
  let crossed = ref 0 in
  List.iter
    (fun p ->
      match retype_to_freertos p with
      | None -> ()
      | Some o1 ->
        (match retype_to_zephyr o1.Eof_core.Transplant.prog with
         | None -> Alcotest.fail "mapped program must map back"
         | Some o2 ->
           Alcotest.(check int) "no drops on the way back" 0
             o2.Eof_core.Transplant.dropped;
           (match retype_to_freertos o2.Eof_core.Transplant.prog with
            | None -> Alcotest.fail "round-trip must keep mapping"
            | Some o3 ->
              incr crossed;
              Alcotest.(check int) "round-trip drops nothing" 0
                o3.Eof_core.Transplant.dropped;
              Alcotest.(check bool) "call structure stable after first crossing"
                true
                (structure o3.Eof_core.Transplant.prog
                = structure o1.Eof_core.Transplant.prog);
              (* Second full round trip: scalars have settled. *)
              (match retype_to_zephyr o3.Eof_core.Transplant.prog with
               | None -> Alcotest.fail "second round-trip must keep mapping"
               | Some o4 ->
                 (match retype_to_freertos o4.Eof_core.Transplant.prog with
                  | None -> Alcotest.fail "second round-trip must keep mapping"
                  | Some o5 ->
                    Alcotest.(check int) "second round-trip drops nothing" 0
                      (o4.Eof_core.Transplant.dropped
                      + o5.Eof_core.Transplant.dropped);
                    Alcotest.(check bool) "second round-trip is byte-stable" true
                      (Prog.hash o5.Eof_core.Transplant.prog
                      = Prog.hash o3.Eof_core.Transplant.prog))))))
    progs;
  Alcotest.(check bool) "round trips exercised" true (!crossed > 0)

let test_transplant_deterministic () =
  (* retype takes no RNG; byte-for-byte equal outcomes across calls. *)
  List.iter
    (fun p ->
      let enc o =
        match
          Eof_agent.Wire.encode ~endianness:Eof_hw.Arch.Little
            (Prog.to_wire o.Eof_core.Transplant.prog)
        with
        | Ok s -> (s, o.Eof_core.Transplant.kept, o.Eof_core.Transplant.dropped)
        | Error e -> Alcotest.fail ("wire: " ^ e)
      in
      match (retype_to_freertos p, retype_to_freertos p) with
      | None, None -> ()
      | Some a, Some b ->
        Alcotest.(check bool) "identical outcome" true (enc a = enc b)
      | _ -> Alcotest.fail "retype nondeterministic accept/reject")
    (seed_progs 30 14L)

let test_golden_generator_stream () =
  (* Pinned program streams: any change to how the generator or the
     mutator draws from the RNG moves these CRCs, and with them every
     same-seed digest. Each CRC covers the little-endian wire encoding of
     40 generated programs followed by one mutation of each. *)
  let stream env seed =
    let _, table, spec = Lazy.force env in
    let gen = Gen.create ~dep_aware:true ~rng:(Eof_util.Rng.create seed) ~spec ~table () in
    let progs = List.init 40 (fun i -> Gen.generate gen ~max_len:(2 + (i mod 10))) in
    let mutated = List.map (fun p -> Gen.mutate gen p ~max_len:12) progs in
    String.concat ""
      (List.map
         (fun p ->
           match Eof_agent.Wire.encode ~endianness:Eof_hw.Arch.Little (Prog.to_wire p) with
           | Ok s -> s
           | Error e -> Alcotest.fail ("wire: " ^ e))
         (progs @ mutated))
  in
  let seeds = [ 1L; 2L; 3L; 17L; 99L; 12345L ] in
  List.iter
    (fun (os, env, crcs) ->
      List.iter2
        (fun seed crc ->
          Alcotest.(check int32)
            (Printf.sprintf "%s seed %Ld stream CRC" os seed)
            crc
            (Eof_util.Crc32.digest_string (stream env seed)))
        seeds crcs)
    [
      ( "Zephyr", zephyr_env,
        [ 0x16cc5bbfl; 0x11afd5eel; 0x84f3c2efl; 0x260e188fl; 0xec9943fal; 0x35d8d99dl ] );
      ( "FreeRTOS", freertos_env,
        [ 0x5793694al; 0xa0a3c8f6l; 0x9e4d33a3l; 0xc484263bl; 0x9dc6b354l; 0x8632330al ] );
      ( "RT-Thread", os_env Rtthread.spec,
        [ 0xb77729c2l; 0x2300df94l; 0x9255b16bl; 0x6c2e7fc1l; 0x64cf80f6l; 0x615ea6fdl ] );
    ]

let test_energy_campaign_deterministic () =
  let build, _, _ = Lazy.force zephyr_env in
  let run () =
    let config =
      {
        Campaign.default_config with
        iterations = 150;
        seed = 21L;
        schedule = Corpus.Energy;
      }
    in
    match Campaign.run config build with
    | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)
    | Ok o ->
      ( o.Campaign.coverage,
        o.Campaign.crash_events,
        o.Campaign.executed_programs,
        o.Campaign.corpus_size,
        Eof_util.Bitset.to_list o.Campaign.coverage_bitmap )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "energy campaign deterministic" true (a = b);
  let cov, _, ex, _, _ = a in
  Alcotest.(check int) "ran the full budget" 150 ex;
  Alcotest.(check bool) "found coverage" true (cov > 0)

let suite =
  suite
  @ [
      Alcotest.test_case "energy schedule budgets" `Quick test_energy_schedule_budgets;
      Alcotest.test_case "uniform schedule is flat" `Quick test_uniform_schedule_is_flat;
      Alcotest.test_case "merge preserves schedule state" `Quick
        test_merge_preserves_schedule_state;
      Alcotest.test_case "transplant validate-clean" `Quick test_transplant_validate_clean;
      Alcotest.test_case "transplant drops unmappable" `Quick
        test_transplant_drops_unmappable;
      Alcotest.test_case "transplant round-trip stable" `Quick
        test_transplant_roundtrip_stable;
      Alcotest.test_case "transplant deterministic" `Quick test_transplant_deterministic;
      Alcotest.test_case "golden generator stream" `Quick test_golden_generator_stream;
      Alcotest.test_case "energy campaign deterministic" `Quick
        test_energy_campaign_deterministic;
    ]

(* --- equivalence with the list-based picker and corpus --------------- *)

(* The lottery the generator and the corpus used to draw through: the
   first item whose running weight total exceeds [Rng.int total]. *)
let ref_weighted rng items =
  let total = List.fold_left (fun acc (_, w) -> acc + max 0 w) 0 items in
  if total <= 0 then invalid_arg "ref_weighted: total weight must be positive";
  let target = Eof_util.Rng.int rng total in
  let rec go acc = function
    | [] -> invalid_arg "ref_weighted: internal"
    | (x, w) :: rest ->
      let acc = acc + max 0 w in
      if target < acc then x else go acc rest
  in
  go 0 items

(* The list-building call pick: filter every spec call, boost producers
   of missing resources, draw. *)
let ref_pick_call ~(spec : Eof_spec.Ast.t) ~calls ~dep_aware rng ~pos ~produced =
  let open Eof_spec.Ast in
  let missing = List.filter (fun kind -> not (produced kind)) spec.resources in
  let satisfiable call =
    List.for_all (fun (_, ty) -> match ty with Ty_res kind -> produced kind | _ -> true) call.args
  in
  let has_res_args call =
    List.exists (fun (_, ty) -> match ty with Ty_res _ -> true | _ -> false) call.args
  in
  let candidates =
    List.filter_map
      (fun (call, idx) ->
        if dep_aware then
          if satisfiable call then
            let boost =
              match call.ret with Some kind when List.mem kind missing -> 3 | _ -> 1
            in
            Some ((call, idx), call.weight * boost)
          else None
        else if pos = 0 && has_res_args call then None
        else Some ((call, idx), call.weight))
      calls
  in
  match candidates with [] -> None | cs -> Some (ref_weighted rng cs)

(* Random produced-kind sets, positions, both modes and reweighted specs
   (weight 0 included, so zero totals occur): the array picker returns
   the list picker's call, raises where it raises, and leaves the RNG in
   the same state. *)
let prop_pick_call_matches_list_model =
  QCheck.Test.make ~name:"pick_call equals the list-lottery model" ~count:300
    QCheck.(
      quad (int_bound 1) bool (int_bound 10_000)
        (pair (list_of_size Gen.(1 -- 40) (int_bound 3))
           (list_of_size Gen.(1 -- 12) (pair (int_bound 0xFFFF) (int_bound 3)))))
    (fun (os, dep_aware, seed, (weights, picks)) ->
      let _, table, spec = Lazy.force (if os = 0 then zephyr_env else freertos_env) in
      let weights = Array.of_list weights in
      let spec =
        {
          spec with
          Eof_spec.Ast.calls =
            List.mapi
              (fun i (c : Eof_spec.Ast.call) ->
                { c with Eof_spec.Ast.weight = weights.(i mod Array.length weights) })
              spec.Eof_spec.Ast.calls;
        }
      in
      let calls = Eof_spec.Synth.index_map spec table in
      let rng = Eof_util.Rng.create (Int64.of_int seed) in
      let model_rng = Eof_util.Rng.create (Int64.of_int seed) in
      let gen = Gen.create ~dep_aware ~rng ~spec ~table () in
      let kinds = Array.of_list spec.Eof_spec.Ast.resources in
      let outcome f = try `Pick (Option.map snd (f ())) with Invalid_argument _ -> `Raised in
      List.for_all
        (fun (mask, pos) ->
          let produced kind =
            let rec bit i =
              i < Array.length kinds
              && ((kinds.(i) = kind && mask land (1 lsl i) <> 0) || bit (i + 1))
            in
            bit 0
          in
          let have = Array.make (Array.length kinds) false in
          Array.iter
            (fun kind ->
              match Gen.kind_id gen kind with
              | Some k -> have.(k) <- produced kind
              | None -> ())
            kinds;
          let got = outcome (fun () -> Gen.pick_call gen ~pos ~have) in
          let want =
            outcome (fun () -> ref_pick_call ~spec ~calls ~dep_aware model_rng ~pos ~produced)
          in
          got = want && Eof_util.Rng.next64 rng = Eof_util.Rng.next64 model_rng)
        picks)

(* The corpus as it was: a newest-first seed list drawn by the list
   lottery, evicting the lowest score (newest on a tie). *)
module Ref_corpus = struct
  type seed = {
    prog : Prog.t;
    hash : int;
    seq : int;
    new_edges : int;
    crashed : bool;
    mutable score : int;
    mutable picks : int;
  }

  type t = {
    rng : Eof_util.Rng.t;
    capacity : int;
    mutable seeds : seed list;
    hashes : (int, unit) Hashtbl.t;
    mutable total_added : int;
  }

  let create ~capacity ~rng = { rng; capacity; seeds = []; hashes = Hashtbl.create 64; total_added = 0 }

  let evict_if_full t =
    if List.length t.seeds > t.capacity then begin
      let worst =
        List.fold_left
          (fun acc s -> match acc with Some w when w.score <= s.score -> acc | _ -> Some s)
          None t.seeds
      in
      match worst with
      | Some w -> t.seeds <- List.filter (fun s -> s != w) t.seeds
      | None -> ()
    end

  let admit t s =
    Hashtbl.replace t.hashes s.hash ();
    t.seeds <- { s with seq = t.total_added } :: t.seeds;
    t.total_added <- t.total_added + 1;
    evict_if_full t

  let add t ~prog ~new_edges ~crashed =
    let hash = Prog.hash prog in
    if Hashtbl.mem t.hashes hash then false
    else begin
      let score = max 1 ((new_edges * 4) + if crashed then 20 else 0) in
      admit t { prog; hash; seq = 0; new_edges; crashed; score; picks = 0 };
      true
    end

  let draw t =
    match t.seeds with
    | [] -> None
    | seeds ->
      let seed = ref_weighted t.rng (List.map (fun s -> (s, max 1 s.score)) seeds) in
      seed.picks <- seed.picks + 1;
      if seed.picks mod 4 = 0 then seed.score <- max 1 (seed.score * 3 / 4);
      Some seed

  let admitted_since t n =
    let rec go acc = function s :: rest when s.seq >= n -> go (s :: acc) rest | _ -> acc in
    go [] t.seeds

  let since t n = List.rev_map (fun s -> s.prog) (admitted_since t n)

  let merge dst src ~since =
    List.fold_left
      (fun n s ->
        if Hashtbl.mem dst.hashes s.hash then n
        else begin
          admit dst s;
          n + 1
        end)
      0 (admitted_since src since)

  let progs t = List.map (fun s -> s.prog) t.seeds
end

(* Random add / next / cursor-merge sequences over two energy-scheduled
   corpora and their list models: every pick and its energy, [progs],
   [since] at several cursors, [size] and [total_added] agree. The
   frontier is not modelled (its code did not change), so the model's
   energy reads the real corpus's frontier. *)
let corpus_pool =
  lazy
    (let gen = make_gen 77L in
     Array.init 1000 (fun i -> Gen.generate gen ~max_len:(2 + (i mod 7))))

let corpus_matches_list_model ?(shrink = true) ~capacity ~count ~ops:(min_ops, max_ops) () =
  QCheck.Test.make
    ~name:(Printf.sprintf "corpus equals the list-lottery model (capacity %d)" capacity)
    ~count
    (let ops =
       QCheck.(
         pair (int_bound 1000)
           (list_of_size Gen.(min_ops -- max_ops)
              (quad (int_bound 9) (int_bound 999) (int_bound 9) bool)))
     in
     if shrink then ops else QCheck.set_shrink (fun _ _ -> ()) ops)
    (fun (seed, ops) ->
      let pool = Lazy.force corpus_pool in
      let target = Corpus.default_target in
      let mk s =
        ( Corpus.create ~capacity ~schedule:Corpus.Energy ~rng:(Eof_util.Rng.create s) (),
          Ref_corpus.create ~capacity ~rng:(Eof_util.Rng.create s) )
      in
      let a, ma = mk (Int64.of_int seed) and b, mb = mk (Int64.of_int (seed + 1)) in
      (* Both sides store the pool's programs themselves. *)
      let same = List.equal ( == ) in
      let a_from_b = ref 0 and b_from_a = ref 0 in
      let energy c (s : Ref_corpus.seed) =
        let bonus =
          (if Corpus.on_frontier c ~target s.Ref_corpus.prog then 2 else 0)
          + (if s.Ref_corpus.picks <= 1 then 1 else 0)
          + if s.Ref_corpus.crashed || s.Ref_corpus.new_edges >= 8 then 1 else 0
        in
        1 lsl min 4 bonus
      in
      let next c m =
        match (Corpus.next c ~target, Ref_corpus.draw m) with
        | None, None -> true
        | Some (p, e), Some s -> Prog.hash p = s.Ref_corpus.hash && e = energy c s
        | _ -> false
      in
      let agree c m =
        let n = Corpus.total_added c in
        Corpus.size c = List.length m.Ref_corpus.seeds
        && n = m.Ref_corpus.total_added
        && same (Corpus.progs c) (Ref_corpus.progs m)
        && List.for_all
             (fun k -> same (Corpus.since c k) (Ref_corpus.since m k))
             [ 0; n / 2; n - capacity; n - 1; n ]
      in
      List.for_all
        (fun (op, i, new_edges, crashed) ->
          let ok =
            match op with
            | 0 | 1 | 2 ->
              Corpus.add a ~prog:pool.(i) ~new_edges ~crashed
              = Ref_corpus.add ma ~prog:pool.(i) ~new_edges ~crashed
            | 3 ->
              Corpus.add b ~prog:pool.(i) ~new_edges ~crashed
              = Ref_corpus.add mb ~prog:pool.(i) ~new_edges ~crashed
            | 4 | 5 | 6 -> next a ma
            | 7 -> next b mb
            | 8 ->
              let got = Corpus.merge a b ~since:!a_from_b in
              let want = Ref_corpus.merge ma mb ~since:!a_from_b in
              a_from_b := Corpus.total_added b;
              got = want
            | _ ->
              let got = Corpus.merge b a ~since:!b_from_a in
              let want = Ref_corpus.merge mb ma ~since:!b_from_a in
              b_from_a := Corpus.total_added a;
              got = want
          in
          ok && agree a ma && agree b mb)
        ops)

(* A program whose calls are not the generator's own spec records (a
   structurally equal copy of every call, as another spec value would
   hold) mutates exactly as the original does. *)
let prop_mutate_foreign_calls =
  QCheck.Test.make ~name:"mutating copied spec calls equals mutating the originals" ~count:100
    QCheck.(pair (int_bound 10_000) bool)
    (fun (seed, dep_aware) ->
      let mk () = make_gen ~dep_aware (Int64.of_int seed) in
      let a = mk () and b = mk () in
      let copy (c : Prog.call) =
        { c with Prog.spec = { c.Prog.spec with Eof_spec.Ast.name = c.Prog.spec.Eof_spec.Ast.name } }
      in
      let wire p = Prog.to_wire p in
      let pa = ref (Gen.generate a ~max_len:8) and pb = ref (Gen.generate b ~max_len:8) in
      List.for_all
        (fun round ->
          pb := List.map copy !pb;
          (if round mod 3 = 0 then begin
             pa := Gen.mutate_focus a !pa ~max_len:12;
             pb := Gen.mutate_focus b !pb ~max_len:12
           end
           else begin
             pa := Gen.mutate a !pa ~max_len:12;
             pb := Gen.mutate b !pb ~max_len:12
           end);
          wire !pa = wire !pb)
        (List.init 30 Fun.id))

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_pick_call_matches_list_model;
      QCheck_alcotest.to_alcotest prop_mutate_foreign_calls;
      QCheck_alcotest.to_alcotest
        (corpus_matches_list_model ~capacity:4 ~count:200 ~ops:(1, 80) ());
      QCheck_alcotest.to_alcotest
        (corpus_matches_list_model ~capacity:6 ~count:200 ~ops:(1, 80) ());
      (* Thousands of operations, so past the cap and through several
         compactions; shrinking lists this long would take minutes. *)
      QCheck_alcotest.to_alcotest
        (corpus_matches_list_model ~shrink:false ~capacity:512 ~count:4 ~ops:(2500, 3000) ());
    ]
