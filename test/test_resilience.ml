open Eof_os
module Campaign = Eof_core.Campaign
module Farm = Eof_core.Farm
module Prog = Eof_core.Prog
module Bitset = Eof_util.Bitset
module Err = Eof_util.Eof_error
module Inject = Eof_debug.Inject
module Session = Eof_debug.Session
module Transport = Eof_debug.Transport
module Covlink = Eof_debug.Covlink
module Machine = Eof_agent.Machine
module Obs = Eof_obs.Obs

let mk_build _board =
  Osbuild.make ~board_profile:Eof_hw.Profiles.stm32f4_disco Zephyr.spec

let ok_or_fail = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Err.to_string e)

(* A link machine whose transport carries an inert injector (rate 0) for
   the test to aim with [Inject.force_next], and the bus that counts the
   session's retries. *)
let aimable_machine build =
  let inj = Inject.create { Inject.default_config with rate = 0. } in
  let transport = Transport.create () in
  Transport.set_injector transport (Some inj);
  let bus = Obs.create () in
  let machine = ok_or_fail (Machine.create ~obs:bus ~transport build) in
  (machine, inj, fun () -> Obs.counter_value bus "session.retries")

(* --- the determinism contract: same seed, same fault schedule ----------- *)

let test_schedule_deterministic () =
  (* The schedule as (exchange index, fault) pairs, in order. *)
  let draw seed =
    let inj = Inject.create { Inject.default_config with rate = 0.05; seed } in
    List.filter_map
      (fun i ->
        match Inject.decide inj with
        | Inject.Fault f -> Some (i, f)
        | Inject.Pass -> None)
      (List.init 2000 Fun.id)
  in
  let h1 = draw 77L and h2 = draw 77L in
  Alcotest.(check bool) "faults were injected" true (h1 <> []);
  Alcotest.(check bool) "same seed, same schedule" true (h1 = h2);
  Alcotest.(check bool) "different seed, different schedule" true (draw 78L <> h1);
  (* Bursts: at least one run of consecutive exchange indices, since a
     burst outliving the retry budget is what drives the ladder. *)
  let indices = List.map fst h1 in
  let consecutive =
    List.exists2
      (fun a b -> b = a + 1)
      (List.filteri (fun i _ -> i < List.length indices - 1) indices)
      (List.tl indices)
  in
  Alcotest.(check bool) "faults arrive in bursts" true consecutive

(* --- every fault kind, at every exchange shape, cured by the retry rung - *)

let test_fault_kinds_cured_by_retry () =
  List.iter
    (fun fault ->
      let name = Inject.fault_name fault in
      let build = mk_build 0 in
      (* The injector is attached but inert; force_next aims one fault
         of the kind under test at the next exchange. *)
      let machine, inj, retries = aimable_machine build in
      let session = Machine.session machine in
      (* A truncated frame leaves the decoder mid-frame, so the retried
         reply completes a bad frame before attempt 3 succeeds — give the
         rung room beyond the default 3 attempts. *)
      Session.set_retry session { Err.Retry.default with attempts = 6 };
      let mailbox = Osbuild.mailbox_base build in
      let clean = ok_or_fail (Session.read_mem session ~addr:mailbox ~len:16) in
      (* counted read *)
      Inject.force_next inj fault;
      let faulted = ok_or_fail (Session.read_mem session ~addr:mailbox ~len:16) in
      Alcotest.(check string) (name ^ ": read survives, data intact") clean faulted;
      (* hex M write *)
      Inject.force_next inj fault;
      ok_or_fail (Session.write_mem session ~addr:mailbox "\x01\x02\x03\x04");
      (* continue (stop-reply exchange) *)
      let syms = Osbuild.syms build in
      ok_or_fail (Session.set_breakpoint session syms.Osbuild.sym_executor_main);
      Inject.force_next inj fault;
      (match Session.continue_ session with
       | Ok _ -> ()
       | Error e ->
         Alcotest.fail (name ^ ": continue failed: " ^ Err.to_string e));
      (* fused vBatch continue+drain *)
      let cov =
        Covlink.create ~session ~layout:(Osbuild.covbuf_layout build)
      in
      Inject.force_next inj fault;
      (match Covlink.continue_and_drain cov ~want_cmp:true with
       | Ok _ -> ()
       | Error e ->
         Alcotest.fail (name ^ ": continue+drain failed: " ^ Err.to_string e));
      Alcotest.(check bool) (name ^ ": retries recorded") true (retries () > 0))
    [ Inject.Drop; Inject.Timeout; Inject.Truncate; Inject.Nak_storm; Inject.Garbage ]

(* --- the escalation ladder under a bursty link -------------------------- *)

let campaign_digest (o : Campaign.outcome) =
  ( Bitset.to_list o.Campaign.coverage_bitmap,
    List.map Prog.hash o.Campaign.final_corpus,
    o.Campaign.executed_programs,
    o.Campaign.iterations_done,
    o.Campaign.timeouts,
    o.Campaign.resets,
    o.Campaign.virtual_s )

let test_ladder_exercised () =
  let run () =
    let bus = Obs.create () in
    let config =
      { Campaign.default_config with
        iterations = 200;
        seed = 7L;
        fault_rate = 0.03;
        fault_seed = 99L
      }
    in
    match Campaign.run ~obs:bus config (mk_build 0) with
    | Error e -> Alcotest.fail (Err.to_string e)
    | Ok o -> (o, Obs.counters bus)
  in
  let o, counters = run () in
  let v name = try List.assoc name counters with Not_found -> 0 in
  Alcotest.(check bool) "campaign made progress" true (o.Campaign.coverage > 0);
  Alcotest.(check bool) "retry rung fired" true (v "session.retries" > 0);
  Alcotest.(check bool) "ladder climbed past retry" true
    (v "recover.resync" + v "recover.reset" + v "recover.reflash" > 0);
  (* Same seed, same faults, same campaign — the schedule is part of the
     deterministic replay contract. *)
  let o2, counters2 = run () in
  Alcotest.(check bool) "faulted campaign deterministic" true
    (campaign_digest o = campaign_digest o2);
  Alcotest.(check bool) "recovery counters deterministic" true (counters = counters2)

(* --- the soak: a 2-board farm on 1%-flaky links finishes ---------------- *)

let test_farm_fault_soak () =
  let config =
    { Farm.boards = 2;
      sync_every = 20;
      base =
        { Campaign.default_config with
          iterations = 300;
          seed = 11L;
          fault_rate = 0.01;
          fault_seed = 42L
        }
    }
  in
  match Farm.run config mk_build with
  | Error e -> Alcotest.fail (Err.to_string e)
  | Ok o ->
    Alcotest.(check bool) "coverage found through the faults" true (o.Farm.coverage > 0);
    Alcotest.(check bool) "programs executed" true (o.Farm.executed_programs > 0);
    Alcotest.(check int) "no board died at 1%" 0 o.Farm.dead_boards;
    (* Zero leaked exceptions: every board ran to its budget and sealed a
       clean outcome (an escaped exception would show up in abort_cause). *)
    Array.iter
      (fun (b : Campaign.outcome) ->
        (match b.Campaign.abort_cause with
         | None -> ()
         | Some e -> Alcotest.fail ("board aborted: " ^ Err.to_string e));
        Alcotest.(check int) "board spent its budget" 150 b.Campaign.iterations_done)
      o.Farm.per_board

(* --- snapshot restores on a flaky link ---------------------------------- *)

let test_snapshot_restore_mid_fault () =
  let build = mk_build 0 in
  let machine, inj, retries = aimable_machine build in
  let session = Machine.session machine in
  Session.set_retry session { Err.Retry.default with attempts = 6 };
  (* Restore before any save is a typed remote error, not a crash. *)
  (match Machine.snapshot_restore machine with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "restore before save accepted");
  ignore (ok_or_fail (Machine.snapshot_save machine) : int);
  Alcotest.(check bool) "snapshot armed" true (Machine.has_snapshot machine);
  let mailbox = Osbuild.mailbox_base build in
  List.iter
    (fun fault ->
      let name = Inject.fault_name fault in
      ok_or_fail (Session.write_mem session ~addr:mailbox "\xAA\xBB\xCC\xDD");
      (* The fault lands on the QSnapshot restore exchange itself: the
         session's retry rung must carry the restore through. Restore is
         idempotent, so a retry after a lost {e reply} (the stub already
         restored) legitimately reports 0 pages — only the end state is
         asserted. *)
      Inject.force_next inj fault;
      (match Machine.snapshot_restore machine with
       | Ok (_dirty : int) -> ()
       | Error e ->
         Alcotest.fail (name ^ ": restore failed: " ^ Err.to_string e));
      let back = ok_or_fail (Session.read_mem session ~addr:mailbox ~len:4) in
      Alcotest.(check string) (name ^ ": page rewound") "\x00\x00\x00\x00" back)
    [ Inject.Drop; Inject.Timeout; Inject.Truncate; Inject.Nak_storm; Inject.Garbage ];
  Alcotest.(check bool) "retries recorded" true (retries () > 0)

(* Fresh-per-program still recovers a bursty link: its reflash rung is
   the snapshot fast path (no partition is ever rewritten), and the
   faulted campaign stays deterministic. *)
let test_snapshot_policy_under_faults () =
  let run () =
    let bus = Obs.create () in
    (* A reflash rung that did not ride the snapshot restore rewrites
       partitions, and each rewritten partition emits an event. *)
    let rewrites = ref 0 in
    Obs.add_sink bus
      (Obs.sink (fun ~t:_ ~board:_ ~tenant:_ -> function
         | Obs.Event.Reflash_partition _ -> incr rewrites
         | _ -> ()));
    let config =
      { Campaign.default_config with
        iterations = 200;
        seed = 7L;
        fault_rate = 0.03;
        fault_seed = 1L;
        reset_policy = Campaign.Fresh_per_program
      }
    in
    match Campaign.run ~obs:bus config (mk_build 0) with
    | Error e -> Alcotest.fail (Err.to_string e)
    | Ok o -> (o, Obs.counters bus, !rewrites)
  in
  let o, counters, rewrites = run () in
  let v name = try List.assoc name counters with Not_found -> 0 in
  Alcotest.(check bool) "campaign made progress" true (o.Campaign.coverage > 0);
  Alcotest.(check bool) "ladder climbed" true
    (v "recover.resync" + v "recover.reset" + v "recover.reflash" > 0);
  Alcotest.(check bool) "reflash rung fired" true (v "recover.reflash" > 0);
  Alcotest.(check int) "every reflash rung rode a snapshot restore" 0 rewrites;
  let o2, counters2, _ = run () in
  Alcotest.(check bool) "faulted snapshot campaign deterministic" true
    (campaign_digest o = campaign_digest o2);
  Alcotest.(check bool) "counters deterministic" true (counters = counters2)

(* --- a dead board does not kill the farm -------------------------------- *)

let test_dead_board_farm () =
  let config =
    { Farm.boards = 2;
      sync_every = 10;
      base = { Campaign.default_config with iterations = 240; seed = 5L }
    }
  in
  let inject_for i =
    if i = 1 then Some { Inject.default_config with kill_after = Some 40 } else None
  in
  match Farm.run ~inject_for config mk_build with
  | Error e -> Alcotest.fail (Err.to_string e)
  | Ok o ->
    Alcotest.(check int) "one board died" 1 o.Farm.dead_boards;
    Alcotest.(check bool) "survivor still found coverage" true (o.Farm.coverage > 0);
    Alcotest.(check bool) "survivor ran its full budget" true
      (o.Farm.per_board.(0).Campaign.iterations_done = 120
      && o.Farm.per_board.(0).Campaign.abort_cause = None);
    (match o.Farm.per_board.(1).Campaign.abort_cause with
     | Some { Err.kind = Err.Board_dead _; _ } -> ()
     | Some e -> Alcotest.fail ("wrong abort cause: " ^ Err.to_string e)
     | None -> Alcotest.fail "dead board has no abort cause")

let suite =
  [
    Alcotest.test_case "fault schedule deterministic" `Quick test_schedule_deterministic;
    Alcotest.test_case "every fault kind cured by retry" `Quick
      test_fault_kinds_cured_by_retry;
    Alcotest.test_case "escalation ladder exercised" `Quick test_ladder_exercised;
    Alcotest.test_case "2-board 1%-fault soak" `Quick test_farm_fault_soak;
    Alcotest.test_case "snapshot restore rides the retry rung" `Quick
      test_snapshot_restore_mid_fault;
    Alcotest.test_case "snapshot policy under faults" `Quick
      test_snapshot_policy_under_faults;
    Alcotest.test_case "dead board does not kill the farm" `Quick
      test_dead_board_farm;
  ]
