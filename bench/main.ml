(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Tables 1-4, Figures 7-8, the §5.5 overhead
   numbers, plus the DESIGN.md ablations), then the virtual-clock model
   sections of BENCH.json. Wall-clock per-layer timing lives in
   perfbench.

   Budgets scale with EOF_BENCH_SCALE (default 1.0). *)

open Eof_expt
module Text_table = Eof_util.Text_table

let section title = print_endline (Text_table.section title)

(* --- paper artifacts -------------------------------------------------- *)

let run_artifacts () =
  let t0 = Unix.gettimeofday () in
  section "Table 1: supported targets (EOF vs GDBFuzz vs Tardis vs SHIFT)";
  print_endline (Table1.render ());

  let iterations = Runner.scaled 3000 in
  Printf.printf "\n[full-system matrix: %d payloads x %d seeds per tool/OS...]\n%!"
    iterations Runner.repetitions;
  let cells = Runner.full_system_matrix ~iterations () in

  section "Table 2: previously unknown bugs detected by EOF";
  print_endline (Table2.render cells);

  section "Table 3: coverage comparison (EOF / EOF-nf / Tardis / Gustave)";
  print_endline (Table3.render cells);

  section "Figure 7: coverage growth on four embedded OSs (24 virtual hours)";
  print_endline (Fig7.render ~iterations cells);
  let csv_out path text =
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text);
    Printf.printf "[series data written to %s]\n" path
  in
  csv_out "fig7.csv" (Fig7.to_csv ~iterations cells);

  let app_iterations = Runner.scaled 2000 in
  Printf.printf "\n[application-level matrix: %d payloads x %d seeds per tool/component...]\n%!"
    app_iterations Runner.repetitions;
  let app_cells = App_level.matrix ~iterations:app_iterations () in

  section "Table 4: application-level coverage (EOF / GDBFuzz / SHIFT)";
  print_endline (Table4.render app_cells);

  section "Figure 8: application-level coverage growth";
  print_endline (Fig8.render ~iterations:app_iterations app_cells);
  csv_out "fig8.csv" (Fig8.to_csv ~iterations:app_iterations app_cells);

  section "Section 5.5.1: memory overhead of instrumentation";
  print_endline (Overhead.render_memory ());

  section "Section 5.5.2: execution overhead of instrumentation";
  print_endline (Overhead.render_execution ());

  section "Ablation A1: PC-stall liveness watchdog";
  print_endline (Ablation.render_a1 ());

  section "Ablation A2: dependency-aware generation";
  print_endline (Ablation.render_a2 ());

  section "Extension E1: interrupt-path fuzzing via peripheral event injection";
  print_endline (Ablation.render_irq ());

  Printf.printf "\n[artifact regeneration took %.1f s]\n%!" (Unix.gettimeofday () -. t0)

(* --- debug-link batching comparison ------------------------------------ *)

type link_stats = {
  mode : string;
  exchanges : int;
  requests : int;
  elapsed_us : float;
  coverage : int;
  crash_events : int;
  payloads : int;
  counters : (string * int) list;  (* full obs counter snapshot *)
}

let run_linked_campaign ~batch_link ~iterations =
  let build =
    Eof_os.Osbuild.make ~board_profile:Eof_hw.Profiles.stm32f4_disco Eof_os.Zephyr.spec
  in
  (* A sinkless bus: events stay off, but the monotonic counters
     accumulate — the per-payload link numbers in BENCH.json's "obs"
     section come from this snapshot. *)
  let obs = Eof_obs.Obs.create () in
  let transport = Eof_debug.Transport.create ~obs () in
  let machine =
    match Eof_agent.Machine.create ~obs ~transport build with
    | Ok m -> m
    | Error e -> failwith (Eof_util.Eof_error.to_string e)
  in
  let config = { Eof_core.Campaign.default_config with iterations; seed = 11L; batch_link } in
  match Eof_core.Campaign.run ~machine ~obs config build with
  | Error e -> failwith (Eof_util.Eof_error.to_string e)
  | Ok o ->
    {
      mode = (if batch_link then "batched" else "unbatched");
      exchanges = Eof_debug.Transport.exchanges transport;
      requests = Eof_debug.Session.requests (Eof_agent.Machine.session machine);
      elapsed_us = Eof_debug.Transport.elapsed_us transport;
      coverage = o.Eof_core.Campaign.coverage;
      crash_events = o.Eof_core.Campaign.crash_events;
      payloads = Eof_obs.Obs.counter_value obs "campaign.payloads";
      counters = Eof_obs.Obs.counters obs;
    }

let run_link_comparison () =
  section "Debug-link batching: vBatch-fused drain vs per-request link";
  let iterations = Runner.scaled 400 in
  Printf.printf "[same Zephyr campaign, seed 11, %d payloads per link mode...]\n%!"
    iterations;
  let unbatched = run_linked_campaign ~batch_link:false ~iterations in
  let batched = run_linked_campaign ~batch_link:true ~iterations in
  let row s =
    [ s.mode; string_of_int s.exchanges; string_of_int s.requests;
      Printf.sprintf "%.0f" (s.elapsed_us /. 1000.);
      string_of_int s.coverage; string_of_int s.crash_events ]
  in
  print_endline
    (Text_table.render
       ~align:Text_table.[ Left; Right; Right; Right; Right; Right ]
       ~header:[ "link mode"; "exchanges"; "requests"; "link ms"; "coverage"; "crashes" ]
       [ row unbatched; row batched ]);
  Printf.printf
    "[exchange reduction %.2fx, link-time reduction %.2fx; coverage %s]\n"
    (float_of_int unbatched.exchanges /. float_of_int batched.exchanges)
    (unbatched.elapsed_us /. batched.elapsed_us)
    (if unbatched.coverage = batched.coverage && unbatched.crash_events = batched.crash_events
     then "and crashes identical"
     else "DIVERGED (bug!)");
  (unbatched, batched)

(* --- link resilience ---------------------------------------------------- *)

type resilience_stats = {
  fault_rate : float;
  res_payloads : int;
  retries : int;
  resyncs : int;
  rung_resets : int;
  rung_reflashes : int;
  rung_dead : int;
  clean_wall_s : float;  (* fault-rate 0, no injector attached *)
  inert_wall_s : float;  (* fault-rate 0, injector attached but inert *)
  rate0_identical : bool;  (* clean vs inert outcomes bit-equal *)
}

let run_resilience () =
  section "Link resilience: recovery ladder under a seeded 2% fault schedule";
  let iterations = Runner.scaled 400 in
  let fault_rate = 0.02 in
  Printf.printf
    "[Zephyr campaign, seed 11, %d payloads, fault rate %.0f%%, fault seed 42...]\n%!"
    iterations (fault_rate *. 100.);
  (* Boards are stateful (flash wear, heap churn): every campaign below
     gets a freshly made build, so the clean/inert pair is comparable. *)
  let mk_build () =
    Eof_os.Osbuild.make ~board_profile:Eof_hw.Profiles.stm32f4_disco Eof_os.Zephyr.spec
  in
  let obs = Eof_obs.Obs.create () in
  let config =
    { Eof_core.Campaign.default_config with
      iterations; seed = 11L; fault_rate; fault_seed = 42L }
  in
  (match Eof_core.Campaign.run ~obs config (mk_build ()) with
  | Error e -> failwith (Eof_util.Eof_error.to_string e)
  | Ok _ -> ());
  let c name = Eof_obs.Obs.counter_value obs name in
  let payloads = max 1 (c "campaign.payloads") in
  let retries = c "session.retries" in
  let resyncs = c "recover.resync" in
  let rung_resets = c "recover.reset" in
  let rung_reflashes = c "recover.reflash" in
  let rung_dead = c "recover.dead" in
  print_endline
    (Text_table.render
       ~align:Text_table.[ Left; Right ]
       ~header:[ "recovery rung"; "fires" ]
       [
         [ "1 retry (exchange re-sent)"; string_of_int retries ];
         [ "2 resync (decoder flush)"; string_of_int resyncs ];
         [ "3 board reset"; string_of_int rung_resets ];
         [ "4 partition reflash"; string_of_int rung_reflashes ];
         [ "5 board dead"; string_of_int rung_dead ];
       ]);
  Printf.printf "[%.3f retries/payload over %d payloads]\n"
    (float_of_int retries /. float_of_int payloads)
    payloads;
  (* The injector wrapper's cost when inert: the same clean campaign with
     and without an attached rate-0 injector must produce identical
     outcomes, and the attached run's wall-clock shows the wrapper tax. *)
  let clean_config = { config with fault_rate = 0. } in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let outcome = function
    | Ok o -> o
    | Error e -> failwith (Eof_util.Eof_error.to_string e)
  in
  let clean, clean_wall_s =
    timed (fun () -> outcome (Eof_core.Campaign.run clean_config (mk_build ())))
  in
  let inert_build = mk_build () in
  let inert_machine =
    match
      Eof_agent.Machine.create
        ~inject:{ Eof_debug.Inject.default_config with rate = 0. } inert_build
    with
    | Ok m -> m
    | Error e -> failwith (Eof_util.Eof_error.to_string e)
  in
  let inert, inert_wall_s =
    timed (fun () ->
        outcome (Eof_core.Campaign.run ~machine:inert_machine clean_config inert_build))
  in
  let rate0_identical =
    clean.Eof_core.Campaign.coverage = inert.Eof_core.Campaign.coverage
    && clean.Eof_core.Campaign.crash_events = inert.Eof_core.Campaign.crash_events
    && clean.Eof_core.Campaign.virtual_s = inert.Eof_core.Campaign.virtual_s
  in
  Printf.printf
    "[inert-injector overhead at fault-rate 0: %.2fx wall clock (%.2fs vs %.2fs); outcomes %s]\n"
    (inert_wall_s /. Float.max 1e-9 clean_wall_s)
    inert_wall_s clean_wall_s
    (if rate0_identical then "identical" else "DIVERGED (bug!)");
  {
    fault_rate;
    res_payloads = payloads;
    retries;
    resyncs;
    rung_resets;
    rung_reflashes;
    rung_dead;
    clean_wall_s;
    inert_wall_s;
    rate0_identical;
  }

(* --- board-farm scaling ------------------------------------------------- *)

let run_scaling () =
  section "Board-farm scaling: one campaign budget across 1/2/4/8 boards";
  let iterations = Runner.scaled 1200 in
  Printf.printf
    "[Zephyr campaign, seed 11, %d payloads total per point...]\n%!"
    iterations;
  let points = Scaling.run ~iterations () in
  if points = [] then failwith "scaling experiment produced no points";
  print_endline (Scaling.render points);
  (match
     List.find_opt (fun (p : Scaling.point) -> p.Scaling.boards = 4) points
   with
   | Some p ->
     Printf.printf "[throughput at 4 boards: %.2fx of 1 board%s]\n"
       p.Scaling.speedup
       (if p.Scaling.speedup >= 2.5 then "" else " — BELOW the 2.5x target")
   | None -> ());
  (iterations, points)

(* --- native backend ------------------------------------------------------ *)

type native_stats = {
  nat_iterations : int;
  nat_link_wall_s : float;
  nat_native_wall_s : float;
  nat_link_virtual_s : float;
  nat_native_virtual_s : float;
  nat_executed : int;
  digest_identical : bool;
}

(* The tentpole measurement: the same campaign over the debug link and
   in-process, payloads per virtual second each way. Virtual time is
   the honest axis — it is where the link's per-exchange latency lives;
   wall clock additionally shows the host-side cost of RSP framing. *)
let run_native_comparison () =
  section "Native backend: in-process execution vs the debug link";
  let iterations = Runner.scaled 800 in
  Printf.printf "[Zephyr campaign, seed 11, %d payloads, link vs native...]\n%!"
    iterations;
  let mk_build () =
    Eof_os.Osbuild.make ~board_profile:Eof_hw.Profiles.stm32f4_disco Eof_os.Zephyr.spec
  in
  let config = { Eof_core.Campaign.default_config with iterations; seed = 11L } in
  let timed backend =
    let t0 = Unix.gettimeofday () in
    match
      Eof_core.Campaign.run { config with Eof_core.Campaign.backend } (mk_build ())
    with
    | Error e -> failwith (Eof_util.Eof_error.to_string e)
    | Ok o -> (o, Unix.gettimeofday () -. t0)
  in
  let link_o, link_wall = timed Eof_agent.Machine.Link in
  let native_o, native_wall = timed Eof_agent.Machine.Native in
  let digest_identical =
    String.equal
      (Eof_core.Report.campaign_digest link_o)
      (Eof_core.Report.campaign_digest native_o)
  in
  let per_s executed virtual_s =
    float_of_int executed /. Float.max 1e-9 virtual_s
  in
  let link_pps = per_s link_o.Eof_core.Campaign.executed_programs link_o.Eof_core.Campaign.virtual_s in
  let native_pps =
    per_s native_o.Eof_core.Campaign.executed_programs native_o.Eof_core.Campaign.virtual_s
  in
  let speedup = native_pps /. Float.max 1e-9 link_pps in
  print_endline
    (Text_table.render
       ~align:Text_table.[ Left; Right; Right; Right ]
       ~header:[ "backend"; "payloads/virtual-s"; "virtual s"; "wall s" ]
       [
         [ "debug link"; Printf.sprintf "%.0f" link_pps;
           Printf.sprintf "%.3f" link_o.Eof_core.Campaign.virtual_s;
           Printf.sprintf "%.2f" link_wall ];
         [ "native"; Printf.sprintf "%.0f" native_pps;
           Printf.sprintf "%.3f" native_o.Eof_core.Campaign.virtual_s;
           Printf.sprintf "%.2f" native_wall ];
       ]);
  Printf.printf "[native throughput: %.1fx the debug link%s; digests %s]\n" speedup
    (if speedup >= 20. then "" else " — BELOW the 20x target")
    (if digest_identical then "identical" else "DIVERGED (bug!)");
  {
    nat_iterations = iterations;
    nat_link_wall_s = link_wall;
    nat_native_wall_s = native_wall;
    nat_link_virtual_s = link_o.Eof_core.Campaign.virtual_s;
    nat_native_virtual_s = native_o.Eof_core.Campaign.virtual_s;
    nat_executed = native_o.Eof_core.Campaign.executed_programs;
    digest_identical;
  }

(* --- copy-on-write snapshots --------------------------------------------- *)

type snapshot_stats = {
  snap_total_pages : int;
  snap_reflash_virtual_s : float;
  snap_points : (float * int * float) list;
      (** dirty fraction of RAM, pages actually copied, restore virtual s *)
  snap_speedup_at_10pct : float;
  snap_ladder_pps : float;
  snap_fresh_pps : float;
  snap_fresh_overhead : float;
  snap_wall_ladder_pps : float;  (** wall-clock siblings of the virtual pps *)
  snap_wall_fresh_pps : float;
}

(* Restore cost must scale with pages written since the save, not with
   partition size: the full reflash pays O(image) link traffic every
   time, the snapshot restore pays one QSnapshot exchange plus
   O(dirty pages) of copy-back cycles. *)
let run_snapshot () =
  section "Copy-on-write snapshots: O(dirty pages) restore vs full reflash";
  let build =
    Eof_os.Osbuild.make ~board_profile:Eof_hw.Profiles.stm32f4_disco Eof_os.Zephyr.spec
  in
  let machine =
    match Eof_agent.Machine.create build with
    | Ok m -> m
    | Error e -> failwith (Eof_util.Eof_error.to_string e)
  in
  let profile = Eof_hw.Board.profile (Eof_os.Osbuild.board build) in
  let image = Eof_os.Osbuild.image build in
  let virtual_s () = Eof_agent.Machine.virtual_elapsed_s machine in
  (* Baseline: the partition-by-partition reflash, measured before any
     snapshot exists so nothing can shortcut it. *)
  let t0 = virtual_s () in
  (match
     Eof_core.Liveness.restore_partitions machine
       ~flash_base:profile.Eof_hw.Board.flash_base ~image
       ~table:image.Eof_hw.Image.table
   with
  | Ok _ -> ()
  | Error e -> failwith (Eof_util.Eof_error.to_string e));
  let reflash_virtual_s = virtual_s () -. t0 in
  let total_pages =
    match Eof_agent.Machine.snapshot_save machine with
    | Ok pages -> pages
    | Error e -> failwith (Eof_util.Eof_error.to_string e)
  in
  let ram_pages = profile.Eof_hw.Board.ram_size / Eof_hw.Memory.page_size in
  let point fraction =
    let k = max 1 (int_of_float (fraction *. float_of_int ram_pages)) in
    for p = 0 to k - 1 do
      match
        Eof_agent.Machine.write_u32 machine
          ~addr:(profile.Eof_hw.Board.ram_base + (p * Eof_hw.Memory.page_size))
          0xD1D1D1D1l
      with
      | Ok () -> ()
      | Error e -> failwith (Eof_util.Eof_error.to_string e)
    done;
    let t0 = virtual_s () in
    match Eof_agent.Machine.snapshot_restore machine with
    | Error e -> failwith (Eof_util.Eof_error.to_string e)
    | Ok dirty -> (fraction, dirty, virtual_s () -. t0)
  in
  let points = List.map point [ 0.01; 0.05; 0.10; 0.25; 0.50 ] in
  print_endline
    (Text_table.render
       ~align:Text_table.[ Right; Right; Right; Right ]
       ~header:[ "dirty frac"; "pages copied"; "restore virtual us"; "vs reflash" ]
       (List.map
          (fun (f, dirty, s) ->
            [ Printf.sprintf "%.0f%%" (100. *. f);
              string_of_int dirty;
              Printf.sprintf "%.1f" (1e6 *. s);
              Printf.sprintf "%.0fx" (reflash_virtual_s /. Float.max 1e-9 s) ])
          points));
  let restore_at_10pct =
    match List.find_opt (fun (f, _, _) -> f = 0.10) points with
    | Some (_, _, s) -> s
    | None -> infinity
  in
  let speedup_at_10pct = reflash_virtual_s /. Float.max 1e-9 restore_at_10pct in
  Printf.printf
    "[full reflash %.1f virtual us; snapshot restore at 10%% dirty: %.1fx cheaper%s]\n"
    (1e6 *. reflash_virtual_s) speedup_at_10pct
    (if speedup_at_10pct >= 5. then "" else " — BELOW the 5x target");
  (* Fresh-state-per-program costs one restore + reboot per payload;
     what it buys is no cross-payload state leakage. *)
  let iterations = Runner.scaled 400 in
  Printf.printf "[Zephyr campaign, seed 11, %d payloads, ladder vs fresh-per-program...]\n%!"
    iterations;
  let mk_build () =
    Eof_os.Osbuild.make ~board_profile:Eof_hw.Profiles.stm32f4_disco Eof_os.Zephyr.spec
  in
  (* Wall time covers the campaign run only; the build is made first. *)
  let campaign reset_policy =
    let build = mk_build () in
    let t0 = Unix.gettimeofday () in
    match
      Eof_core.Campaign.run
        { Eof_core.Campaign.default_config with iterations; seed = 11L; reset_policy }
        build
    with
    | Ok o -> (o, Unix.gettimeofday () -. t0)
    | Error e -> failwith (Eof_util.Eof_error.to_string e)
  in
  let ladder_o, ladder_wall = campaign Eof_core.Campaign.Ladder in
  let fresh_o, fresh_wall = campaign Eof_core.Campaign.Fresh_per_program in
  let pps (o : Eof_core.Campaign.outcome) =
    float_of_int o.Eof_core.Campaign.executed_programs
    /. Float.max 1e-9 o.Eof_core.Campaign.virtual_s
  in
  let ladder_pps = pps ladder_o and fresh_pps = pps fresh_o in
  let wall_pps (o : Eof_core.Campaign.outcome) wall =
    float_of_int o.Eof_core.Campaign.executed_programs /. Float.max 1e-9 wall
  in
  let wall_ladder_pps = wall_pps ladder_o ladder_wall
  and wall_fresh_pps = wall_pps fresh_o fresh_wall in
  Printf.printf
    "[ladder %.0f payloads/virtual-s, fresh-per-program %.0f (%.2fx the virtual cost)]\n"
    ladder_pps fresh_pps (ladder_pps /. Float.max 1e-9 fresh_pps);
  Printf.printf
    "[wall clock: ladder %.0f payloads/s, fresh-per-program %.0f (%.2fx the wall cost)]\n"
    wall_ladder_pps wall_fresh_pps (wall_ladder_pps /. Float.max 1e-9 wall_fresh_pps);
  {
    snap_total_pages = total_pages;
    snap_reflash_virtual_s = reflash_virtual_s;
    snap_points = points;
    snap_speedup_at_10pct = speedup_at_10pct;
    snap_ladder_pps = ladder_pps;
    snap_fresh_pps = fresh_pps;
    snap_fresh_overhead = ladder_pps /. Float.max 1e-9 fresh_pps;
    snap_wall_ladder_pps = wall_ladder_pps;
    snap_wall_fresh_pps = wall_fresh_pps;
  }

(* --- fleet hub ----------------------------------------------------------- *)

type hub_stats = {
  hub_tenants : int;
  hub_farms : int;
  hub_iterations : int;  (** per tenant *)
  hub_payloads : int;
  hub_wall_s : float;
  hub_nosync_wall_s : float;
  hub_transplants : int;
  hub_crashes_deduped : int;
  hub_crash_sum : int;  (** per-tenant crash counts, before fleet dedup *)
  hub_deterministic : bool;
  hub_reassigned : int;  (** shard leases moved off the scripted-dead worker *)
  hub_payloads_lost : int;  (** reported work written off at the revoke *)
  hub_recovery_lag_s : float;  (** virtual shard progress discarded *)
  hub_kill_deterministic : bool;  (** scripted-death rerun byte-identical *)
  hub_replay_frames : int;  (** journal frames replayed at the resume *)
  hub_replay_wall_s : float;  (** wall cost of replaying the finished journal *)
  hub_resume_digest_identical : bool;
      (** halt + journal resume reaches the uninterrupted fleet digest *)
}

let run_hub_fleet () =
  section "Fleet hub: two tenants sharded across two farms";
  let iterations = Runner.scaled 400 in
  Printf.printf
    "[2 tenants x 2 farms, %d payloads per tenant, in-process deterministic fleet...]\n%!"
    iterations;
  let module Tenant = Eof_hub.Tenant in
  let module Worker = Eof_hub.Worker in
  let module Inproc = Eof_hub.Inproc in
  let resolve os =
    match Eof_expt.Targets.find os with
    | None -> Error (Printf.sprintf "unknown OS %s" os)
    | Some target ->
      let build = Eof_expt.Targets.build_hw target in
      let table = Eof_os.Osbuild.api_signatures build in
      (match Eof_spec.Synth.validated_of_api table with
      | Error e -> Error e
      | Ok spec ->
        Ok
          {
            Worker.mk_build = (fun _ -> Eof_expt.Targets.build_hw target);
            spec;
            table;
          })
  in
  let tenants =
    [
      { Tenant.default with Tenant.tenant = "alice"; os = "Zephyr"; seed = 7L;
        iterations; farms = 2 };
      { Tenant.default with Tenant.tenant = "bob"; os = "FreeRTOS"; seed = 11L;
        iterations; farms = 2 };
    ]
  in
  let run ?corpus_sync ?journal ?kill ?halt_after () =
    match
      Inproc.run ?corpus_sync ?journal ?kill ?halt_after ~farms:2 tenants ~resolve
    with
    | Ok o -> o
    | Error e -> failwith e
  in
  let a = run () in
  let b = run () in
  let nosync = run ~corpus_sync:false () in
  let deterministic = String.equal (Inproc.summary a) (Inproc.summary b) in
  (* Recovery drill: silence worker 1 a quarter of the way into its
     share of the budget; its shards are revoked on the heartbeat
     deadline and restarted on worker 0. *)
  let kill_at = max 10 (iterations / 4) in
  Printf.printf "[worker-death drill: silencing worker 1 after %d payloads...]\n%!"
    kill_at;
  let killed = run ~kill:(1, kill_at) () in
  let killed2 = run ~kill:(1, kill_at) () in
  let kill_deterministic =
    String.equal (Inproc.summary killed) (Inproc.summary killed2)
  in
  (* Crash-safety drill: journal, halt mid-campaign, resume; then replay
     the finished journal once more to price the replay itself. *)
  Printf.printf "[journal drill: halting mid-campaign and resuming...]\n%!";
  let journal = Filename.temp_file "eof-bench" ".journal" in
  Sys.remove journal;
  let resumed, replay_only_wall_s =
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists journal then Sys.remove journal)
      (fun () ->
        ignore (run ~journal ~halt_after:iterations () : Inproc.outcome);
        let resumed = run ~journal () in
        (* every campaign in the journal is now finished: a third run
           replays it and completes without executing a payload *)
        let t0 = Unix.gettimeofday () in
        ignore (run ~journal () : Inproc.outcome);
        (resumed, Unix.gettimeofday () -. t0))
  in
  let resume_identical =
    String.equal (Inproc.summary a) (Inproc.summary resumed)
  in
  let wall_s = Float.min a.Inproc.wall_s b.Inproc.wall_s in
  let crash_sum =
    List.fold_left
      (fun acc (r : Inproc.tenant_result) -> acc + r.Inproc.crashes)
      0 a.Inproc.tenants
  in
  print_string (Inproc.summary a);
  Printf.printf
    "[%.0f payloads/s aggregate; corpus-sync overhead %.2fx (%d transplants); %d crashes deduped from %d; reruns %s]\n"
    (float_of_int a.Inproc.payloads /. Float.max 1e-9 wall_s)
    (wall_s /. Float.max 1e-9 nosync.Inproc.wall_s)
    a.Inproc.transplants a.Inproc.crashes_deduped crash_sum
    (if deterministic then "byte-identical" else "DIVERGED (bug!)");
  Printf.printf
    "[recovery: %d shards reassigned, %d payloads written off, %.2f virtual s lag, rerun %s; journal: %d frames replayed in %.3fs, resume %s]\n"
    killed.Inproc.reassignments killed.Inproc.payloads_lost
    killed.Inproc.recovery_lag
    (if kill_deterministic then "byte-identical" else "DIVERGED (bug!)")
    resumed.Inproc.replayed_frames replay_only_wall_s
    (if resume_identical then "= uninterrupted digest" else "DIVERGED (bug!)");
  {
    hub_tenants = List.length tenants;
    hub_farms = 2;
    hub_iterations = iterations;
    hub_payloads = a.Inproc.payloads;
    hub_wall_s = wall_s;
    hub_nosync_wall_s = nosync.Inproc.wall_s;
    hub_transplants = a.Inproc.transplants;
    hub_crashes_deduped = a.Inproc.crashes_deduped;
    hub_crash_sum = crash_sum;
    hub_deterministic = deterministic;
    hub_reassigned = killed.Inproc.reassignments;
    hub_payloads_lost = killed.Inproc.payloads_lost;
    hub_recovery_lag_s = killed.Inproc.recovery_lag;
    hub_kill_deterministic = kill_deterministic;
    hub_replay_frames = resumed.Inproc.replayed_frames;
    hub_replay_wall_s = replay_only_wall_s;
    hub_resume_digest_identical = resume_identical;
  }

(* --- corpus scheduling ----------------------------------------------------- *)

(* When a bug first showed up: the executed-payload count, which is
   exact, and the virtual clock, which on the native backend rounds to
   0.000 s at small budgets. *)
type hit = { ttb_payloads : int; ttb_virtual_s : float }

type schedule_stats = {
  sched_iterations : int;  (** per OS per schedule *)
  sched_oses : string list;
  sched_catalog : int;
  sched_uniform_found : (int * hit) list;  (** bug id, first hit *)
  sched_energy_found : (int * hit) list;
  sched_uniform_median : (float * float) option;
      (** median payloads and virtual s over bugs both schedules found *)
  sched_energy_median : (float * float) option;
}

(* Step one native-backend campaign to its budget, stamping the payload
   count and the virtual clock the first time each Table-2 bug shows up
   in the dedup'd crash list. *)
let time_to_bugs ~schedule ~iterations (target : Targets.hw_target) =
  let config =
    {
      Eof_core.Campaign.default_config with
      iterations;
      seed = 11L;
      backend = Eof_agent.Machine.Native;
      schedule;
    }
  in
  let st =
    match Eof_core.Campaign.init config (Targets.build_hw target) with
    | Ok st -> st
    | Error e -> failwith (Eof_util.Eof_error.to_string e)
  in
  let found = ref [] in
  let seen = ref 0 in
  while not (Eof_core.Campaign.finished st) do
    Eof_core.Campaign.step st;
    let crashes = Eof_core.Campaign.crashes_so_far st in
    let n = List.length crashes in
    if n > !seen then begin
      let now =
        {
          ttb_payloads = Eof_core.Campaign.executed_programs_so_far st;
          ttb_virtual_s = Eof_core.Campaign.virtual_s st;
        }
      in
      List.iteri
        (fun i crash ->
          if i >= !seen then
            match Targets.match_bug crash with
            | Some bug when not (List.mem_assoc bug.Targets.id !found) ->
              found := (bug.Targets.id, now) :: !found
            | _ -> ())
        crashes;
      seen := n
    end
  done;
  ignore (Eof_core.Campaign.finish st : Eof_core.Campaign.outcome);
  List.rev !found

let median l =
  let sorted = List.sort compare l in
  let n = List.length sorted in
  (List.nth sorted ((n - 1) / 2) +. List.nth sorted (n / 2)) /. 2.

(* Median payload count and median virtual time, each taken on its own
   over the same bugs; the payload median may fall between two counts. *)
let median_hit = function
  | [] -> None
  | hits ->
    Some
      ( median (List.map (fun h -> float_of_int h.ttb_payloads) hits),
        median (List.map (fun h -> h.ttb_virtual_s) hits) )

let run_schedule () =
  section "Corpus scheduling: time-to-bug, uniform vs energy";
  let iterations = Runner.scaled 4000 in
  Printf.printf
    "[%d native payloads per OS per schedule, seed 11, %d-bug catalog...]\n%!"
    iterations (List.length Targets.catalog);
  let oses =
    List.map (fun (t : Targets.hw_target) -> t.Targets.spec.Eof_os.Osbuild.os_name)
      Targets.all
  in
  let sweep schedule =
    List.concat_map
      (fun (t : Targets.hw_target) -> time_to_bugs ~schedule ~iterations t)
      Targets.all
  in
  let uniform = sweep Eof_core.Corpus.Uniform in
  let energy = sweep Eof_core.Corpus.Energy in
  let common = List.filter (fun (id, _) -> List.mem_assoc id energy) uniform in
  let u_median = median_hit (List.map snd common) in
  let e_median =
    median_hit (List.map (fun (id, _) -> List.assoc id energy) common)
  in
  let cells = function
    | Some h -> [ string_of_int h.ttb_payloads; Printf.sprintf "%.3f" h.ttb_virtual_s ]
    | None -> [ "-"; "-" ]
  in
  let ids =
    List.map fst uniform
    @ List.filter (fun id -> not (List.mem_assoc id uniform)) (List.map fst energy)
  in
  print_endline
    (Text_table.render
       ~align:Text_table.[ Right; Right; Right; Right; Right ]
       ~header:
         [ "bug id"; "uniform payloads"; "uniform virt s"; "energy payloads"; "energy virt s" ]
       (List.map
          (fun id ->
            (string_of_int id :: cells (List.assoc_opt id uniform))
            @ cells (List.assoc_opt id energy))
          ids));
  let med = function
    | Some (p, v) -> Printf.sprintf "%.1f payloads (%.3fs)" p v
    | None -> "n/a"
  in
  Printf.printf
    "[uniform found %d bugs, energy %d; median ttb on the %d common bugs: uniform %s, energy %s]\n"
    (List.length uniform) (List.length energy) (List.length common)
    (med u_median) (med e_median);
  {
    sched_iterations = iterations;
    sched_oses = oses;
    sched_catalog = List.length Targets.catalog;
    sched_uniform_found = uniform;
    sched_energy_found = energy;
    sched_uniform_median = u_median;
    sched_energy_median = e_median;
  }

(* --- machine-readable results ------------------------------------------ *)

(* Every section is optional: a failed stage becomes a JSON null, never
   a missing BENCH.json. *)
let write_bench_json ~link ~scaling ~resilience ~native ~snapshot ~hub ~schedule
    path =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n  \"debug_link\": ";
  (match link with
  | None -> Buffer.add_string b "null"
  | Some (unbatched, batched) ->
    Buffer.add_string b "{\n";
    let stats s =
      Printf.sprintf
        "{ \"exchanges\": %d, \"requests\": %d, \"elapsed_us\": %.0f, \"coverage\": %d, \"crash_events\": %d }"
        s.exchanges s.requests s.elapsed_us s.coverage s.crash_events
    in
    Buffer.add_string b (Printf.sprintf "    \"unbatched\": %s,\n" (stats unbatched));
    Buffer.add_string b (Printf.sprintf "    \"batched\": %s,\n" (stats batched));
    Buffer.add_string b
      (Printf.sprintf "    \"exchange_reduction\": %.3f,\n"
         (float_of_int unbatched.exchanges /. float_of_int batched.exchanges));
    Buffer.add_string b
      (Printf.sprintf "    \"link_time_reduction\": %.3f,\n"
         (unbatched.elapsed_us /. batched.elapsed_us));
    Buffer.add_string b
      (Printf.sprintf "    \"outcomes_identical\": %b\n"
         (unbatched.coverage = batched.coverage
         && unbatched.crash_events = batched.crash_events));
    Buffer.add_string b "  }");
  Buffer.add_string b ",\n  \"obs\": ";
  (match link with
  | None -> Buffer.add_string b "null"
  | Some (_, batched) ->
    (* Counter-derived link economics of the batched (default) mode. *)
    let c name =
      match List.assoc_opt name batched.counters with Some v -> v | None -> 0
    in
    let payloads = max 1 batched.payloads in
    let per v = float_of_int v /. float_of_int payloads in
    Buffer.add_string b "{\n";
    Buffer.add_string b
      (Printf.sprintf "    \"exchanges_per_payload\": %.3f,\n"
         (per (c "transport.exchanges")));
    Buffer.add_string b
      (Printf.sprintf "    \"bytes_per_payload\": %.1f,\n"
         (per (c "transport.bytes_tx" + c "transport.bytes_rx")));
    Buffer.add_string b
      (Printf.sprintf
         "    \"drain_spans\": { \"count\": %d, \"total_us\": %d },\n"
         (c "span.covlink.exchange.count") (c "span.covlink.exchange.us"));
    Buffer.add_string b "    \"counters\": {\n";
    let n = List.length batched.counters in
    List.iteri
      (fun i (name, v) ->
        Buffer.add_string b
          (Printf.sprintf "      \"%s\": %d%s\n" (Eof_obs.Obs.json_escape name) v
             (if i < n - 1 then "," else "")))
      batched.counters;
    Buffer.add_string b "    }\n  }");
  Buffer.add_string b ",\n  \"farm_scaling\": ";
  (match scaling with
  | None -> Buffer.add_string b "null"
  | Some (iterations, points) ->
    Buffer.add_string b "{\n";
    Buffer.add_string b
      (Printf.sprintf "    \"iterations\": %d,\n    \"series\": [\n"
         iterations);
    let n = List.length points in
    List.iteri
      (fun i (p : Scaling.point) ->
        Buffer.add_string b
          (Printf.sprintf
             "      { \"boards\": %d, \"payloads\": %d, \"coverage\": %d, \"virtual_s\": %.3f, \"wall_s\": %.3f, \"throughput_per_virtual_s\": %.2f, \"speedup\": %.3f, \"time_to_cov_s\": %s, \"crashes\": %d }%s\n"
             p.Scaling.boards p.Scaling.payloads p.Scaling.coverage
             p.Scaling.virtual_s p.Scaling.wall_s p.Scaling.throughput
             p.Scaling.speedup
             (match p.Scaling.time_to_cov with
             | Some t -> Printf.sprintf "%.3f" t
             | None -> "null")
             p.Scaling.crashes
             (if i < n - 1 then "," else "")))
      points;
    Buffer.add_string b "    ]\n  }");
  Buffer.add_string b ",\n  \"native\": ";
  (match native with
  | None -> Buffer.add_string b "null"
  | Some s ->
    let pps executed virtual_s = float_of_int executed /. Float.max 1e-9 virtual_s in
    let link_pps = pps s.nat_executed s.nat_link_virtual_s in
    let native_pps = pps s.nat_executed s.nat_native_virtual_s in
    Buffer.add_string b "{\n";
    Buffer.add_string b
      (Printf.sprintf "    \"iterations\": %d,\n    \"executed\": %d,\n"
         s.nat_iterations s.nat_executed);
    Buffer.add_string b
      (Printf.sprintf
         "    \"payloads_per_virtual_s\": { \"link\": %.1f, \"native\": %.1f },\n"
         link_pps native_pps);
    Buffer.add_string b
      (Printf.sprintf "    \"virtual_s\": { \"link\": %.4f, \"native\": %.4f },\n"
         s.nat_link_virtual_s s.nat_native_virtual_s);
    Buffer.add_string b
      (Printf.sprintf "    \"wall_s\": { \"link\": %.3f, \"native\": %.3f },\n"
         s.nat_link_wall_s s.nat_native_wall_s);
    Buffer.add_string b
      (Printf.sprintf "    \"speedup_virtual\": %.1f,\n"
         (native_pps /. Float.max 1e-9 link_pps));
    Buffer.add_string b
      (Printf.sprintf "    \"speedup_wall\": %.2f,\n"
         (s.nat_link_wall_s /. Float.max 1e-9 s.nat_native_wall_s));
    Buffer.add_string b
      (Printf.sprintf "    \"digest_identical\": %b\n" s.digest_identical);
    Buffer.add_string b "  }");
  Buffer.add_string b ",\n  \"resilience\": ";
  (match resilience with
  | None -> Buffer.add_string b "null"
  | Some r ->
    Buffer.add_string b "{\n";
    Buffer.add_string b
      (Printf.sprintf "    \"fault_rate\": %.3f,\n    \"payloads\": %d,\n"
         r.fault_rate r.res_payloads);
    Buffer.add_string b
      (Printf.sprintf "    \"retries\": %d,\n    \"retries_per_payload\": %.3f,\n"
         r.retries
         (float_of_int r.retries /. float_of_int (max 1 r.res_payloads)));
    Buffer.add_string b
      (Printf.sprintf
         "    \"recoveries\": { \"resync\": %d, \"reset\": %d, \"reflash\": %d, \"dead\": %d },\n"
         r.resyncs r.rung_resets r.rung_reflashes r.rung_dead);
    Buffer.add_string b
      (Printf.sprintf
         "    \"injector_overhead_rate0\": { \"clean_wall_s\": %.3f, \"inert_wall_s\": %.3f, \"ratio\": %.3f, \"outcomes_identical\": %b }\n"
         r.clean_wall_s r.inert_wall_s
         (r.inert_wall_s /. Float.max 1e-9 r.clean_wall_s)
         r.rate0_identical);
    Buffer.add_string b "  }");
  Buffer.add_string b ",\n  \"snapshot\": ";
  (match snapshot with
  | None -> Buffer.add_string b "null"
  | Some s ->
    Buffer.add_string b "{\n";
    Buffer.add_string b
      (Printf.sprintf
         "    \"total_pages\": %d,\n    \"full_reflash_virtual_s\": %.6f,\n"
         s.snap_total_pages s.snap_reflash_virtual_s);
    Buffer.add_string b "    \"restore\": [\n";
    let n = List.length s.snap_points in
    List.iteri
      (fun i (fraction, dirty, virtual_s) ->
        Buffer.add_string b
          (Printf.sprintf
             "      { \"dirty_fraction\": %.2f, \"pages_copied\": %d, \"virtual_s\": %.6f }%s\n"
             fraction dirty virtual_s
             (if i < n - 1 then "," else "")))
      s.snap_points;
    Buffer.add_string b "    ],\n";
    Buffer.add_string b
      (Printf.sprintf "    \"speedup_at_10pct_dirty\": %.1f,\n"
         s.snap_speedup_at_10pct);
    Buffer.add_string b
      (Printf.sprintf
         "    \"fresh_per_program\": { \"ladder_pps\": %.1f, \"fresh_pps\": %.1f, \"overhead_ratio\": %.2f, \"wall_ladder_pps\": %.1f, \"wall_fresh_pps\": %.1f }\n"
         s.snap_ladder_pps s.snap_fresh_pps s.snap_fresh_overhead s.snap_wall_ladder_pps
         s.snap_wall_fresh_pps);
    Buffer.add_string b "  }");
  Buffer.add_string b ",\n  \"hub\": ";
  (match hub with
  | None -> Buffer.add_string b "null"
  | Some h ->
    Buffer.add_string b "{\n";
    Buffer.add_string b
      (Printf.sprintf
         "    \"tenants\": %d,\n    \"farms\": %d,\n    \"iterations_per_tenant\": %d,\n"
         h.hub_tenants h.hub_farms h.hub_iterations);
    Buffer.add_string b
      (Printf.sprintf "    \"payloads\": %d,\n    \"payloads_per_s\": %.1f,\n"
         h.hub_payloads
         (float_of_int h.hub_payloads /. Float.max 1e-9 h.hub_wall_s));
    Buffer.add_string b
      (Printf.sprintf
         "    \"corpus_sync\": { \"wall_s\": %.3f, \"nosync_wall_s\": %.3f, \"overhead_ratio\": %.3f, \"transplants\": %d },\n"
         h.hub_wall_s h.hub_nosync_wall_s
         (h.hub_wall_s /. Float.max 1e-9 h.hub_nosync_wall_s)
         h.hub_transplants);
    Buffer.add_string b
      (Printf.sprintf
         "    \"crashes\": { \"deduped\": %d, \"tenant_sum\": %d },\n"
         h.hub_crashes_deduped h.hub_crash_sum);
    Buffer.add_string b
      (Printf.sprintf
         "    \"reassignment\": { \"shards_reassigned\": %d, \"payloads_lost\": %d, \"recovery_lag_virtual_s\": %.4f, \"kill_deterministic\": %b, \"replay_frames\": %d, \"replay_wall_s\": %.4f, \"resume_digest_identical\": %b },\n"
         h.hub_reassigned h.hub_payloads_lost h.hub_recovery_lag_s
         h.hub_kill_deterministic h.hub_replay_frames h.hub_replay_wall_s
         h.hub_resume_digest_identical);
    Buffer.add_string b
      (Printf.sprintf "    \"deterministic\": %b\n" h.hub_deterministic);
    Buffer.add_string b "  }");
  Buffer.add_string b ",\n  \"schedule\": ";
  (match schedule with
  | None -> Buffer.add_string b "null"
  | Some s ->
    let found_json found other =
      let n = List.length found in
      String.concat ""
        (List.mapi
           (fun i (id, h) ->
             let other_payloads, other_virtual_s =
               match List.assoc_opt id other with
               | Some o -> (string_of_int o.ttb_payloads, Printf.sprintf "%.4f" o.ttb_virtual_s)
               | None -> ("null", "null")
             in
             Printf.sprintf
               "      { \"id\": %d, \"ttb_payloads\": %d, \"ttb_virtual_s\": %.4f, \"other_ttb_payloads\": %s, \"other_ttb_virtual_s\": %s }%s\n"
               id h.ttb_payloads h.ttb_virtual_s other_payloads other_virtual_s
               (if i < n - 1 then "," else ""))
           found)
    in
    let summary found median =
      let p, v =
        match median with
        | Some (p, v) -> (Printf.sprintf "%.1f" p, Printf.sprintf "%.4f" v)
        | None -> ("null", "null")
      in
      Printf.sprintf
        "{ \"bugs_found\": %d, \"median_ttb_payloads\": %s, \"median_ttb_virtual_s\": %s }"
        (List.length found) p v
    in
    Buffer.add_string b "{\n";
    Buffer.add_string b
      (Printf.sprintf
         "    \"iterations_per_os\": %d,\n    \"oses\": [%s],\n    \"catalog_bugs\": %d,\n"
         s.sched_iterations
         (String.concat ", "
            (List.map
               (fun os -> Printf.sprintf "\"%s\"" (Eof_obs.Obs.json_escape os))
               s.sched_oses))
         s.sched_catalog);
    Buffer.add_string b
      (Printf.sprintf "    \"uniform\": %s,\n"
         (summary s.sched_uniform_found s.sched_uniform_median));
    Buffer.add_string b
      (Printf.sprintf "    \"energy\": %s,\n"
         (summary s.sched_energy_found s.sched_energy_median));
    Buffer.add_string b "    \"uniform_bugs\": [\n";
    Buffer.add_string b (found_json s.sched_uniform_found s.sched_energy_found);
    Buffer.add_string b "    ],\n    \"energy_bugs\": [\n";
    Buffer.add_string b (found_json s.sched_energy_found s.sched_uniform_found);
    Buffer.add_string b "    ]\n";
    Buffer.add_string b "  }");
  Buffer.add_string b "\n}\n";
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (Buffer.contents b));
  Printf.printf "[machine-readable results written to %s]\n" path

(* A stage that dies prints why and yields None; the run keeps going and
   BENCH.json is written regardless of which stages survived. *)
let guarded name f =
  try Some (f ())
  with e ->
    Printf.printf "\n[%s stage failed: %s]\n%!" name (Printexc.to_string e);
    None

let () =
  ignore (guarded "artifact" run_artifacts : unit option);
  let scaling = guarded "farm-scaling" run_scaling in
  let link = guarded "debug-link" run_link_comparison in
  let resilience = guarded "resilience" run_resilience in
  let native = guarded "native-backend" run_native_comparison in
  let snapshot = guarded "snapshot" run_snapshot in
  let hub = guarded "hub-fleet" run_hub_fleet in
  let schedule = guarded "schedule" run_schedule in
  write_bench_json ~link ~scaling ~resilience ~native ~snapshot ~hub ~schedule
    "BENCH.json"
