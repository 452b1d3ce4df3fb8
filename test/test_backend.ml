(* The native transplant backend and its differential oracle.

   The load-bearing property is backend equivalence: a campaign run
   in-process (no RSP, no transport, direct-memory coverage drains) must
   report the exact same observable results — digest, crash dedup set,
   corpus, recovery counts — as the same campaign over the debug link.
   These tests pin that equivalence on the interesting schedules:
   crashing payloads, liveness-stall recovery, and multi-board farms. *)

open Eof_os
module Machine = Eof_agent.Machine
module Campaign = Eof_core.Campaign
module Farm = Eof_core.Farm
module Diff = Eof_core.Diff
module Report = Eof_core.Report
module Eof_error = Eof_util.Eof_error

let zephyr () = Osbuild.make ~board_profile:Eof_hw.Profiles.stm32f4_disco Zephyr.spec

let rtthread () = Osbuild.make ~board_profile:Eof_hw.Profiles.esp32_devkitc Rtthread.spec

let run_both config mk_build =
  let run backend =
    match Campaign.run { config with Campaign.backend } (mk_build ()) with
    | Ok o -> o
    | Error e ->
      Alcotest.fail
        (Printf.sprintf "%s run failed: %s" (Machine.backend_name backend)
           (Eof_error.to_string e))
  in
  (run Machine.Link, run Machine.Native)

(* --- backend equivalence ------------------------------------------------ *)

let test_diff_with_crashes () =
  let config = { Campaign.default_config with Campaign.seed = 11L; iterations = 250 } in
  let link, native = run_both config zephyr in
  (* The schedule must exercise the crash path, or this test pins
     nothing interesting. *)
  Alcotest.(check bool) "link run crashed" true (link.Campaign.crash_events > 0);
  Alcotest.(check string) "digest equal"
    (Report.campaign_digest link)
    (Report.campaign_digest native);
  Alcotest.(check (list string)) "crash dedup sets equal"
    (List.map Eof_core.Crash.dedup_key link.Campaign.crashes)
    (List.map Eof_core.Crash.dedup_key native.Campaign.crashes);
  Alcotest.(check int) "resets equal" link.Campaign.resets native.Campaign.resets;
  (* And the native clock must be strictly cheaper: same CPU cost, no
     link latency term. *)
  Alcotest.(check bool) "native virtual time below link" true
    (native.Campaign.virtual_s < link.Campaign.virtual_s)

(* RT-Thread's hang bug (#5): get_type on a detached object never
   returns, which is what drives the PC-stall watchdog. Hand-built so
   the stall schedule is deterministic rather than hoping the generator
   stumbles into it. *)
let hang_seed build =
  let table = Osbuild.api_signatures build in
  let spec =
    match Eof_spec.Synth.validated_of_api table with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let api_index name =
    let rec go i = function
      | [] -> Alcotest.fail ("no api " ^ name)
      | (e : Eof_rtos.Api.entry) :: _ when e.Eof_rtos.Api.name = name -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 table.Eof_rtos.Api.entries
  in
  let call name args =
    match Eof_spec.Ast.find_call spec name with
    | Some c -> { Eof_core.Prog.spec = c; api_index = api_index name; args }
    | None -> Alcotest.fail ("no spec call " ^ name)
  in
  [
    call "rt_event_create" [];
    call "rt_object_detach" [ Eof_core.Prog.Res 0 ];
    call "rt_object_get_type" [ Eof_core.Prog.Res 0 ];
  ]

let test_diff_with_stall_recovery () =
  (* RT-Thread's hang bug drives the PC-stall watchdog: the interesting
     equivalence here is that stall detection, the reboot it triggers
     and the hang crash record all land identically on both backends. *)
  let config =
    {
      Campaign.default_config with
      Campaign.seed = 4L;
      iterations = 220;
      initial_seeds = [ hang_seed (rtthread ()) ];
    }
  in
  let link, native = run_both config rtthread in
  Alcotest.(check bool) "link run stalled" true (link.Campaign.stalls > 0);
  Alcotest.(check int) "stalls equal" link.Campaign.stalls native.Campaign.stalls;
  Alcotest.(check string) "digest equal"
    (Report.campaign_digest link)
    (Report.campaign_digest native)

(* Bug #5 reports an assertion and then hangs. Through a campaign the
   watchdog catches the hang, and the stall handler must leave the bug to
   the log monitor's assertion record rather than add a Hang of its own. *)
let test_assert_then_hang () =
  let config =
    {
      Campaign.default_config with
      Campaign.seed = 4L;
      iterations = 40;
      initial_seeds = [ hang_seed (rtthread ()) ];
    }
  in
  match Campaign.run config (rtthread ()) with
  | Error e -> Alcotest.fail (Eof_error.to_string e)
  | Ok o ->
    let module Crash = Eof_core.Crash in
    Alcotest.(check bool) "stalled" true (o.Campaign.stalls >= 1);
    let is kind (c : Crash.t) = c.Crash.kind = kind in
    (match List.filter (is Crash.Kernel_assertion) o.Campaign.crashes with
     | [ c ] ->
       Alcotest.(check string) "operation" "rt_object_get_type" c.Crash.operation;
       Alcotest.(check bool) "log monitor" true (c.Crash.detected_by = Crash.Log_monitor)
     | cs -> Alcotest.failf "%d assertion records, expected 1" (List.length cs));
    Alcotest.(check int) "no hang record" 0
      (List.length (List.filter (is Crash.Hang) o.Campaign.crashes))

let test_diff_runner_verdict () =
  let config = { Campaign.default_config with Campaign.seed = 7L; iterations = 120 } in
  match Diff.run config zephyr with
  | Error e -> Alcotest.fail (Eof_error.to_string e)
  | Ok v ->
    Alcotest.(check bool) "backends agree" true v.Diff.equal;
    Alcotest.(check (list string)) "no mismatches" []
      (List.map (fun m -> m.Diff.field) v.Diff.mismatches);
    Alcotest.(check bool) "speedup measured" true (v.Diff.speedup_virtual > 1.)

let test_diff_farm () =
  let config =
    {
      Farm.boards = 3;
      sync_every = 10;
      base = { Campaign.default_config with Campaign.seed = 9L; iterations = 120 };
    }
  in
  match Diff.run_farm config (fun _ -> zephyr ()) with
  | Error e -> Alcotest.fail (Eof_error.to_string e)
  | Ok v ->
    Alcotest.(check bool)
      ("farm backends agree\n" ^ Diff.report v)
      true v.Diff.equal

(* --- snapshot reset policies -------------------------------------------- *)

let test_fresh_per_program_deterministic () =
  let run reset_policy =
    let bus = Eof_obs.Obs.create () in
    let config =
      { Campaign.default_config with Campaign.seed = 33L; iterations = 120;
        reset_policy }
    in
    match Campaign.run ~obs:bus config (zephyr ()) with
    | Ok o ->
      (o,
       Eof_obs.Obs.counter_value bus "snapshot.saves",
       Eof_obs.Obs.counter_value bus "snapshot.restores",
       Eof_obs.Obs.counter_value bus "snapshot.pages_copied")
    | Error e -> Alcotest.fail (Eof_error.to_string e)
  in
  let o1, saves1, restores1, copied1 = run Campaign.Fresh_per_program in
  let o2, _, restores2, copied2 = run Campaign.Fresh_per_program in
  let _, ladder_saves, _, _ = run Campaign.Ladder in
  Alcotest.(check int) "ladder never saves a snapshot" 0 ladder_saves;
  Alcotest.(check int) "fresh-per-program saves once" 1 saves1;
  Alcotest.(check bool) "made progress" true (o1.Campaign.coverage > 0);
  Alcotest.(check int) "one restore per payload" o1.Campaign.iterations_done
    restores1;
  Alcotest.(check bool) "restores actually copy pages" true (copied1 > 0);
  Alcotest.(check string) "same seed, same digest"
    (Report.campaign_digest o1) (Report.campaign_digest o2);
  Alcotest.(check int) "same restore schedule" restores1 restores2;
  Alcotest.(check int) "same pages copied" copied1 copied2

let test_diff_snapshot_policies () =
  (* The differential oracle must hold under the snapshot policy: the
     native backend's in-process snapshot and the link's stub-side
     QSnapshot must copy the same pages at the same points. *)
  let config =
    { Campaign.default_config with Campaign.seed = 13L; iterations = 120;
      reset_policy = Campaign.Fresh_per_program }
  in
  match Diff.run config zephyr with
  | Error e -> Alcotest.fail (Eof_error.to_string e)
  | Ok v ->
    Alcotest.(check bool) ("fresh-per-program backends agree\n" ^ Diff.report v) true
      v.Diff.equal

let test_reset_policy_names () =
  List.iter
    (fun p ->
      match Campaign.reset_policy_of_name (Campaign.reset_policy_name p) with
      | Ok p' when p' = p -> ()
      | _ -> Alcotest.fail ("name roundtrip: " ^ Campaign.reset_policy_name p))
    [ Campaign.Ladder; Campaign.Fresh_per_program ];
  (match Campaign.reset_policy_of_name "FRESH" with
   | Ok Campaign.Fresh_per_program -> ()
   | _ -> Alcotest.fail "fresh alias, case-insensitive");
  (* The retired snapshot policy is an unknown name like any other. *)
  List.iter
    (fun name ->
      match Campaign.reset_policy_of_name name with
      | Error e ->
        Alcotest.(check string) (name ^ ": error names the policies")
          (Printf.sprintf "unknown reset policy %S (expected ladder|fresh-per-program)" name)
          e
      | Ok _ -> Alcotest.fail (name ^ ": unknown policy must be rejected"))
    [ "warp"; "snapshot" ]

(* --- native constraints ------------------------------------------------- *)

let test_native_rejects_fault_rate () =
  let config =
    {
      Campaign.default_config with
      Campaign.backend = Machine.Native;
      fault_rate = 0.05;
      iterations = 10;
    }
  in
  (match Campaign.run config (zephyr ()) with
   | Error { Eof_error.kind = Eof_error.Config _; _ } -> ()
   | Error e -> Alcotest.fail ("wrong error: " ^ Eof_error.to_string e)
   | Ok _ -> Alcotest.fail "native + fault_rate must be rejected");
  (* The farm applies the same gate before building any board. *)
  let farm_config = { Farm.boards = 1; sync_every = 25; base = config } in
  (match Farm.run farm_config (fun _ -> zephyr ()) with
   | Error { Eof_error.kind = Eof_error.Config _; _ } -> ()
   | Error e -> Alcotest.fail ("wrong farm error: " ^ Eof_error.to_string e)
   | Ok _ -> Alcotest.fail "farm native + fault_rate must be rejected");
  (* And so does diff mode — a faulted link run has no native
     counterpart. *)
  match Diff.run { config with Campaign.backend = Machine.Link } zephyr with
  | Error { Eof_error.kind = Eof_error.Config _; _ } -> ()
  | Error e -> Alcotest.fail ("wrong diff error: " ^ Eof_error.to_string e)
  | Ok _ -> Alcotest.fail "diff + fault_rate must be rejected"

let test_native_machine_has_no_link () =
  match Machine.create_native (zephyr ()) with
  | Error e -> Alcotest.fail (Eof_error.to_string e)
  | Ok m ->
    Alcotest.(check bool) "backend native" true (Machine.backend m = Machine.Native);
    (match Machine.session m with
     | exception Invalid_argument _ -> ()
     | _ -> Alcotest.fail "session must raise on native");
    (match Machine.resync m with
     | Ok () -> ()
     | Error e -> Alcotest.fail ("native resync: " ^ Eof_error.to_string e))

let test_backend_names () =
  Alcotest.(check string) "link" "link" (Machine.backend_name Machine.Link);
  Alcotest.(check string) "native" "native" (Machine.backend_name Machine.Native);
  (match Machine.backend_of_name "Native" with
   | Ok Machine.Native -> ()
   | _ -> Alcotest.fail "case-insensitive native");
  match Machine.backend_of_name "jtag" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown backend must be rejected"

(* --- satellite: crc32 table + wire encode_into -------------------------- *)

let test_crc32_known_answers () =
  (* The IEEE 802.3 check value. *)
  Alcotest.(check int32) "check string" 0xCBF43926l
    (Eof_util.Crc32.digest_string "123456789");
  Alcotest.(check int32) "empty" 0l (Eof_util.Crc32.digest_string "");
  (* Ranged digest agrees with the string digest over a 4k sector. *)
  let sector = Bytes.make 4096 '\x5A' in
  Bytes.set sector 17 '\x00';
  Alcotest.(check int32) "ranged = whole"
    (Eof_util.Crc32.digest_string (Bytes.to_string sector))
    (Eof_util.Crc32.digest_bytes sector ~pos:0 ~len:4096)

let test_encode_into_matches_encode () =
  let build = zephyr () in
  let table = Osbuild.api_signatures build in
  let spec =
    match Eof_spec.Synth.validated_of_api table with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let gen =
    Eof_core.Gen.create ~rng:(Eof_util.Rng.create 3L) ~spec ~table ()
  in
  let buf = Buffer.create 256 in
  List.iter
    (fun endianness ->
      for _ = 1 to 50 do
        let wire = Eof_core.Prog.to_wire (Eof_core.Gen.generate gen ~max_len:10) in
        match Eof_agent.Wire.encode ~endianness wire with
        | Error e -> Alcotest.fail e
        | Ok reference ->
          Buffer.clear buf;
          (match Eof_agent.Wire.encode_into ~endianness buf wire with
           | Error e -> Alcotest.fail e
           | Ok () -> ());
          Alcotest.(check string) "encode_into = encode" reference (Buffer.contents buf)
      done)
    [ Eof_hw.Arch.Little; Eof_hw.Arch.Big ]

let test_synth_memoized () =
  let table = Osbuild.api_signatures (zephyr ()) in
  match
    (Eof_spec.Synth.validated_of_api table, Eof_spec.Synth.validated_of_api table)
  with
  | Ok a, Ok b ->
    (* Same physical value: the parse happened once. *)
    Alcotest.(check bool) "shared parse result" true (a == b)
  | _ -> Alcotest.fail "spec synthesis failed"

let suite =
  [
    Alcotest.test_case "diff: crashing campaign backend-equal" `Slow test_diff_with_crashes;
    Alcotest.test_case "diff: stall recovery backend-equal" `Slow
      test_diff_with_stall_recovery;
    Alcotest.test_case "assert-then-hang is one log-monitor assertion" `Quick
      test_assert_then_hang;
    Alcotest.test_case "diff runner verdict" `Slow test_diff_runner_verdict;
    Alcotest.test_case "diff: multi-board farm backend-equal" `Slow test_diff_farm;
    Alcotest.test_case "fresh-per-program deterministic" `Slow
      test_fresh_per_program_deterministic;
    Alcotest.test_case "diff: snapshot policies backend-equal" `Slow
      test_diff_snapshot_policies;
    Alcotest.test_case "reset policy names" `Quick test_reset_policy_names;
    Alcotest.test_case "native rejects fault injection" `Quick
      test_native_rejects_fault_rate;
    Alcotest.test_case "native machine has no link" `Quick test_native_machine_has_no_link;
    Alcotest.test_case "backend names" `Quick test_backend_names;
    Alcotest.test_case "crc32 known answers" `Quick test_crc32_known_answers;
    Alcotest.test_case "wire encode_into matches encode" `Quick
      test_encode_into_matches_encode;
    Alcotest.test_case "spec synthesis memoized" `Quick test_synth_memoized;
  ]
