(* The eof command-line tool: fuzz a target, inspect specifications,
   list targets, or regenerate a single paper artifact. *)

open Cmdliner
module Obs = Eof_obs.Obs
module Campaign = Eof_core.Campaign
module Crash = Eof_core.Crash
module Targets = Eof_expt.Targets
module Runner = Eof_expt.Runner

let os_arg =
  let doc = "Target OS: FreeRTOS, RT-Thread, NuttX, Zephyr or PoKOS." in
  Arg.(value & opt string "Zephyr" & info [ "os" ] ~docv:"OS" ~doc)

let seed_arg =
  let doc = "Campaign seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let iterations_arg =
  let doc = "Payload budget (test cases to execute)." in
  Arg.(value & opt int 1000 & info [ "iterations"; "n" ] ~docv:"N" ~doc)

let target_of os =
  match Targets.find os with
  | Some t -> Ok t
  | None ->
    Error
      (Printf.sprintf "unknown OS %S (known: %s)" os
         (String.concat ", "
            (List.map (fun (t : Targets.hw_target) -> t.Targets.spec.Eof_os.Osbuild.os_name)
               Targets.all)))

(* --- eof fuzz ---------------------------------------------------------- *)

(* The digest lines (wall-clock-free result fingerprints) live in
   Report so the CLI, the differential oracle and the tests all print
   the same bits for the same outcome. *)
let campaign_digest = Eof_core.Report.campaign_digest
let farm_digest = Eof_core.Report.farm_digest

(* Which machinery executes payloads: one backend, or both with the
   differential oracle comparing them. *)
type exec_mode = Single of Eof_agent.Machine.backend | Differential

let exec_backend_of_name s =
  match String.lowercase_ascii s with
  | "diff" | "differential" -> Ok Differential
  | _ -> Result.map (fun b -> Single b) (Eof_agent.Machine.backend_of_name s)

(* "off" keeps the bus inert on the console side; a trace sink can still
   be attached independently. *)
let console_level_of_string s =
  match String.lowercase_ascii s with
  | "off" | "none" | "quiet" -> Ok None
  | s -> Result.map Option.some (Obs.Level.of_string s)

let fuzz os seed iterations boards sync_every exec_backend digest
    no_feedback no_dep no_watchdog irq verbose crash_dir save_corpus load_corpus
    log_level trace_file fault_rate fault_seed reset_policy schedule =
  match
    (target_of os, console_level_of_string log_level,
     exec_backend_of_name exec_backend, Campaign.reset_policy_of_name reset_policy,
     Eof_core.Corpus.schedule_of_name schedule)
  with
  | Error e, _, _, _, _
  | _, Error e, _, _, _
  | _, _, Error e, _, _
  | _, _, _, Error e, _
  | _, _, _, _, Error e ->
    prerr_endline e;
    1
  | _ when not (fault_rate >= 0. && fault_rate <= 1.) ->
    prerr_endline "eof fuzz: --fault-rate must be within [0, 1]";
    1
  | Ok target, Ok console_level, Ok exec_mode, Ok reset_policy, Ok schedule ->
    let obs = Obs.create () in
    (match console_level with
     | Some min_level -> Obs.add_sink obs (Obs.console_sink ~min_level ())
     | None -> ());
    let trace_oc =
      match trace_file with
      | None -> None
      | Some path ->
        let oc = open_out path in
        Obs.add_sink obs (Obs.jsonl_sink oc);
        Some oc
    in
    Fun.protect ~finally:(fun () -> Option.iter close_out trace_oc) @@ fun () ->
    let build = Targets.build_hw target in
    let profile = Eof_hw.Board.profile (Eof_os.Osbuild.board build) in
    Obs.message obs Obs.Level.Info
      (Printf.sprintf
         "fuzzing %s %s on %s %s (%d payloads, seed %d%s)"
         (Eof_os.Osbuild.os_name build) (Eof_os.Osbuild.version build)
         profile.Eof_hw.Board.name
         (match exec_mode with
          | Single Eof_agent.Machine.Link | Differential ->
            Printf.sprintf "over its %s debug port%s"
              (Eof_hw.Board.debug_port_name profile.Eof_hw.Board.debug_port)
              (match exec_mode with
               | Differential -> " + in-process (differential)"
               | _ -> "")
          | Single Eof_agent.Machine.Native -> "in-process (native backend)")
         iterations seed
         (if boards = 1 then "" else Printf.sprintf ", %d boards" boards));
    let table = Eof_os.Osbuild.api_signatures build in
    (* A resumed campaign that quietly restarted from an empty corpus
       would report a digest for a run nobody asked for: a corpus that
       cannot be loaded is a bad argument. *)
    let initial_seeds =
      match load_corpus with
      | None -> Ok []
      | Some path ->
        let ( let* ) = Result.bind in
        let* spec =
          Result.map_error
            (fun e ->
              Printf.sprintf "cannot synthesise the %s spec: %s"
                (Eof_os.Osbuild.os_name build) e)
            (Eof_spec.Synth.validated_of_api table)
        in
        let* progs, skipped = Eof_core.Corpus_io.load ~path ~spec ~table in
        Obs.message obs Obs.Level.Info
          (Printf.sprintf "loaded %d corpus seeds from %s (%d stale entries skipped)"
             (List.length progs) path skipped);
        Ok progs
    in
    match initial_seeds with
    | Error e ->
      prerr_endline ("eof fuzz: could not load corpus: " ^ e);
      1
    | Ok initial_seeds ->
    let config =
      {
        Campaign.default_config with
        seed = Int64.of_int seed;
        iterations;
        backend =
          (match exec_mode with
           | Single b -> b
           (* Diff.run overrides the backend for each of its two runs. *)
           | Differential -> Eof_agent.Machine.Link);
        feedback = not no_feedback;
        dep_aware = not no_dep;
        stall_watchdog = not no_watchdog;
        irq_injection = irq;
        initial_seeds;
        fault_rate;
        fault_seed = Int64.of_int fault_seed;
        reset_policy;
        schedule;
      }
    in
    if fault_rate > 0. then
      Obs.message obs Obs.Level.Info
        (Printf.sprintf "link-fault injection on: rate %g, seed %d" fault_rate
           fault_seed);
    let print_crashes crashes crash_events =
      Printf.printf "crashes: %d distinct (%d events)\n\n" (List.length crashes)
        crash_events;
      List.iter
        (fun crash ->
          print_endline ("  " ^ Crash.summary crash);
          (match Targets.match_bug crash with
           | Some bug ->
             Printf.printf "    -> Table 2 bug #%d (%s)\n" bug.Targets.id
               bug.Targets.operation
           | None -> ());
          if verbose then begin
            print_endline "    triggering program:";
            String.split_on_char '\n' crash.Crash.program
            |> List.iter (fun l -> print_endline ("      " ^ l))
          end)
        crashes
    in
    let save_outputs crashes final_corpus =
      (match crash_dir with
       | None -> ()
       | Some dir ->
         (match Eof_core.Report.save_crashes ~dir crashes with
          | Ok paths ->
            Printf.printf "\nwrote %d crash reports under %s\n" (List.length paths) dir
          | Error e -> prerr_endline ("could not write crash reports: " ^ e)));
      match save_corpus with
      | None -> ()
      | Some path ->
        (match Eof_core.Corpus_io.save ~path final_corpus with
         | Ok () ->
           Printf.printf "saved %d corpus seeds to %s\n" (List.length final_corpus) path
         | Error e -> prerr_endline ("could not save corpus: " ^ e))
    in
    match exec_mode with
    | Differential ->
      (* Run both backends on the same seed schedule and compare every
         observable: any divergence is a bug in one of them. *)
      let module Diff = Eof_core.Diff in
      let verdict =
        if boards = 1 then Diff.run ~obs config (fun () -> Targets.build_hw target)
        else
          let module Farm = Eof_core.Farm in
          Diff.run_farm ~obs
            { Farm.boards; sync_every; base = config }
            (fun _board -> Targets.build_hw target)
      in
      (match verdict with
       | Error e ->
         prerr_endline ("differential campaign failed: " ^ Eof_util.Eof_error.to_string e);
         1
       | Ok v ->
         print_endline (Diff.report v);
         if v.Diff.equal then 0 else 1)
    | Single _ ->
    if boards = 1 then (
      match Campaign.run ~obs config build with
      | Error e ->
        prerr_endline ("campaign failed: " ^ Eof_util.Eof_error.to_string e);
        1
      | Ok o ->
        if digest then (
          print_endline (campaign_digest o);
          0)
        else begin
          Printf.printf
            "\ncoverage: %d branches | executed: %d | corpus: %d | resets: %d | reflashes: %d | stalls: %d\n"
            o.Campaign.coverage o.Campaign.executed_programs o.Campaign.corpus_size
            o.Campaign.resets o.Campaign.reflashes o.Campaign.stalls;
          print_crashes o.Campaign.crashes o.Campaign.crash_events;
          save_outputs o.Campaign.crashes o.Campaign.final_corpus;
          0
        end)
    else begin
      let module Farm = Eof_core.Farm in
      let farm_config = { Farm.boards; sync_every; base = config } in
      match Farm.run ~obs farm_config (fun _board -> Targets.build_hw target) with
      | Error e ->
        prerr_endline ("farm campaign failed: " ^ Eof_util.Eof_error.to_string e);
        1
      | Ok o ->
        if digest then (
          print_endline (farm_digest o);
          0)
        else begin
          Array.iteri
            (fun i (b : Campaign.outcome) ->
              Printf.printf
                "board %d: coverage %d | executed %d | crashes %d | board clock %.2f s\n"
                i b.Campaign.coverage b.Campaign.executed_programs
                (List.length b.Campaign.crashes) b.Campaign.virtual_s)
            o.Farm.per_board;
          Printf.printf
            "\nglobal coverage: %d branches | executed: %d | corpus: %d | syncs: %d | farm clock: %.2f s\n"
            o.Farm.coverage o.Farm.executed_programs o.Farm.corpus_size o.Farm.syncs
            o.Farm.virtual_s;
          print_crashes o.Farm.crashes o.Farm.crash_events;
          save_outputs o.Farm.crashes o.Farm.final_corpus;
          0
        end
    end

let fuzz_cmd =
  let boards =
    Arg.(value & opt int 1
         & info [ "boards" ] ~docv:"N"
             ~doc:"Shard the campaign across $(docv) boards (a board farm).")
  in
  let sync_every =
    Arg.(value & opt int 25
         & info [ "sync-every" ] ~docv:"K"
             ~doc:"Merge corpus/coverage across boards every $(docv) payloads.")
  in
  let exec_backend =
    Arg.(value & opt string "link"
         & info [ "backend" ] ~docv:"BACKEND"
             ~doc:"Execution backend: $(b,link) drives the agent over the simulated debug \
                   port (RSP framing, transport latency), $(b,native) runs agent and RTOS \
                   in-process with coverage drained by direct call (same results, no link \
                   cost), $(b,diff) runs both on the same seed schedule and fails if any \
                   observable differs.")
  in
  let digest =
    Arg.(value & flag
         & info [ "digest" ]
             ~doc:"Print only a deterministic one-line fingerprint of the results (no wall times); rerunning the same command must print the same line.")
  in
  let no_feedback =
    Arg.(value & flag & info [ "no-feedback" ] ~doc:"Disable coverage feedback (EOF-nf).")
  in
  let no_dep =
    Arg.(value & flag & info [ "no-dep" ] ~doc:"Disable dependency-aware generation.")
  in
  let no_watchdog =
    Arg.(value & flag & info [ "no-watchdog" ] ~doc:"Disable the PC-stall watchdog.")
  in
  let irq =
    Arg.(value & flag & info [ "irq" ] ~doc:"Inject GPIO edges (interrupt-path fuzzing).")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print triggering programs.")
  in
  let crash_dir =
    Arg.(value & opt (some string) None
         & info [ "crash-dir" ] ~docv:"DIR" ~doc:"Write one report file per distinct crash.")
  in
  let save_corpus =
    Arg.(value & opt (some string) None
         & info [ "save-corpus" ] ~docv:"FILE" ~doc:"Save the final corpus.")
  in
  let load_corpus =
    Arg.(value & opt (some string) None
         & info [ "load-corpus" ] ~docv:"FILE" ~doc:"Seed the corpus from a saved file.")
  in
  let log_level =
    Arg.(value & opt string "info"
         & info [ "log-level" ] ~docv:"LEVEL"
             ~doc:"Console telemetry on stderr at $(docv): $(b,trace), $(b,debug), $(b,info), $(b,warn), $(b,error), or $(b,off). Result output on stdout is unaffected.")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write every telemetry event to $(docv) as JSONL, timestamped in virtual time. Rerunning the same command (farms included) produces a byte-identical trace.")
  in
  let fault_rate =
    Arg.(value & opt float 0.
         & info [ "fault-rate" ] ~docv:"P"
             ~doc:"Deterministically inject debug-link faults (drops, truncations, NAK storms, timeouts, post-reset garbage): each exchange starts a fault burst with probability $(docv). 0 disables injection entirely; the link path is then byte-identical to a run without this flag.")
  in
  let fault_seed =
    Arg.(value & opt int (Int64.to_int Campaign.default_config.Campaign.fault_seed)
         & info [ "fault-seed" ] ~docv:"SEED"
             ~doc:"Seed for the fault injector's private RNG. Same seed, same rate, same command: same faults, same recoveries, same digest and trace. Each farm board derives its own independent schedule from $(docv).")
  in
  let reset_policy =
    Arg.(value & opt string "ladder"
         & info [ "reset-policy" ] ~docv:"POLICY"
             ~doc:"How the target gets back to pristine state: $(b,ladder) reflashes \
                   every partition from the golden image (the original escalation \
                   ladder); $(b,fresh-per-program) arms a copy-on-write snapshot at \
                   install and rewinds to it before every payload, so the reflash \
                   rung restores only dirty pages.")
  in
  let schedule =
    Arg.(value & opt string "uniform"
         & info [ "schedule" ] ~docv:"SCHED"
             ~doc:"Seed scheduling: $(b,uniform) (one mutation per corpus pick — the \
                   original behavior, byte-identical digests) or $(b,energy) \
                   (AFLFast-style power schedule: seeds on the campaign target's \
                   rare-edge frontier, first picks and crash finds earn \
                   exponentially larger mutation budgets).")
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc:"Run an EOF campaign against a simulated board")
    Term.(
      const fuzz $ os_arg $ seed_arg $ iterations_arg $ boards $ sync_every
      $ exec_backend $ digest $ no_feedback $ no_dep $ no_watchdog
      $ irq $ verbose $ crash_dir $ save_corpus $ load_corpus $ log_level $ trace
      $ fault_rate $ fault_seed $ reset_policy $ schedule)

(* --- eof trace ---------------------------------------------------------- *)

let trace_summary file =
  match Eof_obs.Trace.of_file file with
  | summary ->
    print_string (Eof_obs.Trace.render summary);
    0
  | exception Sys_error e ->
    prerr_endline e;
    1

let trace_cmd =
  let file =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"A JSONL trace written by $(b,eof fuzz --trace).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Summarize a JSONL telemetry trace (time per phase, link traffic, coverage growth)")
    Term.(const trace_summary $ file)

(* --- eof spec ----------------------------------------------------------- *)

let spec os =
  match target_of os with
  | Error e ->
    prerr_endline e;
    1
  | Ok target ->
    let build = Targets.build_hw target in
    let table = Eof_os.Osbuild.api_signatures build in
    print_string (Eof_spec.Synth.syzlang_of_api table);
    (match Eof_spec.Synth.validated_of_api table with
     | Ok _ ->
       prerr_endline "# specification parses and validates";
       0
     | Error e ->
       prerr_endline ("# INVALID: " ^ e);
       1)

let spec_cmd =
  Cmd.v
    (Cmd.info "spec" ~doc:"Print the synthesized Syzlang-style API specification")
    Term.(const spec $ os_arg)

(* --- eof targets ---------------------------------------------------------- *)

let targets () =
  List.iter
    (fun (t : Targets.hw_target) ->
      let os = t.Targets.spec.Eof_os.Osbuild.os_name in
      let bugs = List.filter (fun (b : Targets.bug) -> b.Targets.os = os) Targets.catalog in
      Printf.printf "%-10s %-10s on %-18s (%s, %d seeded bugs)\n" os
        t.Targets.spec.Eof_os.Osbuild.version t.Targets.board.Eof_hw.Board.name
        (Eof_hw.Arch.family_name t.Targets.board.Eof_hw.Board.arch.Eof_hw.Arch.family)
        (List.length bugs))
    Targets.all;
  0

let targets_cmd =
  Cmd.v (Cmd.info "targets" ~doc:"List evaluation targets") Term.(const targets $ const ())

(* --- eof artifact ----------------------------------------------------------- *)

let artifact name iterations =
  match name with
  | "table1" ->
    print_endline (Eof_expt.Table1.render ());
    0
  | "table2" | "table3" | "fig7" ->
    let cells = Runner.full_system_matrix ~iterations () in
    print_endline
      (match name with
       | "table2" -> Eof_expt.Table2.render cells
       | "table3" -> Eof_expt.Table3.render cells
       | _ -> Eof_expt.Fig7.render ~iterations cells);
    0
  | "table4" | "fig8" ->
    let cells = Eof_expt.App_level.matrix ~iterations () in
    print_endline
      (if name = "table4" then Eof_expt.Table4.render cells
       else Eof_expt.Fig8.render ~iterations cells);
    0
  | "overhead" ->
    print_endline (Eof_expt.Overhead.render_memory ());
    print_endline (Eof_expt.Overhead.render_execution ());
    0
  | "ablation" ->
    print_endline (Eof_expt.Ablation.render_a1 ());
    print_endline (Eof_expt.Ablation.render_a2 ());
    0
  | other ->
    prerr_endline
      (Printf.sprintf
         "unknown artifact %S (table1 table2 table3 table4 fig7 fig8 overhead ablation)"
         other);
    1

let artifact_cmd =
  let artifact_name =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ARTIFACT"
          ~doc:"One of: table1 table2 table3 table4 fig7 fig8 overhead ablation")
  in
  Cmd.v
    (Cmd.info "artifact" ~doc:"Regenerate one paper table or figure")
    Term.(const artifact $ artifact_name $ iterations_arg)

(* --- eof serve / eof submit -------------------------------------------- *)

module Hub_tenant = Eof_hub.Tenant
module Hub_worker = Eof_hub.Worker
module Hub_inproc = Eof_hub.Inproc
module Hub_socket = Eof_hub.Socket

(* What the hub and its workers need to know about an OS personality:
   builds (memoized in Osbuild, so per-shard resolution is cheap) and
   the spec/table pair that rebinds wire-encoded corpus programs. *)
let hub_target os =
  match target_of os with
  | Error e -> Error e
  | Ok target ->
    let build = Targets.build_hw target in
    let table = Eof_os.Osbuild.api_signatures build in
    (match Eof_spec.Synth.validated_of_api table with
    | Error e -> Error (Printf.sprintf "%s: spec synthesis failed: %s" os e)
    | Ok spec ->
      Ok
        {
          Hub_worker.mk_build = (fun _board -> Targets.build_hw target);
          spec;
          table;
        })

let parse_tenants specs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | s :: rest ->
      (match Hub_tenant.of_spec s with
      | Ok c -> go (c :: acc) rest
      | Error e -> Error e)
  in
  go [] specs

(* One JSONL file per tenant: the same event stream the fuzz --trace
   flag writes, pre-filtered on the tenant tag. *)
let tenant_trace_sinks obs dir tenants =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  List.map
    (fun (c : Hub_tenant.config) ->
      let name = c.Hub_tenant.tenant in
      let oc = open_out (Filename.concat dir (name ^ ".jsonl")) in
      Obs.add_sink obs
        (Obs.sink (fun ~t ~board ~tenant ev ->
             if tenant = Some name then begin
               output_string oc (Obs.event_to_json ~t ~board ~tenant ev);
               output_char oc '\n'
             end));
      oc)
    tenants

(* "--kill-worker 1@40": silence worker 1 after its 40th payload. *)
let parse_kill = function
  | None -> Ok None
  | Some s ->
    (match String.index_opt s '@' with
    | Some at ->
      let w = String.sub s 0 at
      and n = String.sub s (at + 1) (String.length s - at - 1) in
      (match (int_of_string_opt w, int_of_string_opt n) with
      | Some w, Some n when w >= 0 && n >= 1 -> Ok (Some (w, n))
      | _, _ -> Error (Printf.sprintf "eof serve: bad --kill-worker %S (want W@N)" s))
    | None -> Error (Printf.sprintf "eof serve: bad --kill-worker %S (want W@N)" s))

let serve inproc socket_path farms tenant_specs trace_dir no_corpus_sync
    max_campaigns journal heartbeat_timeout kill_spec halt_after =
  let corpus_sync = not no_corpus_sync in
  match (inproc, socket_path, parse_kill kill_spec) with
  | _, _, Error e ->
    prerr_endline e;
    2
  | false, None, _ ->
    prerr_endline "eof serve: choose --inproc or --socket PATH";
    2
  | true, Some _, _ ->
    prerr_endline "eof serve: --inproc and --socket are mutually exclusive";
    2
  | true, None, Ok kill ->
    (match parse_tenants tenant_specs with
    | Error e ->
      prerr_endline e;
      2
    | Ok [] ->
      prerr_endline "eof serve --inproc: submit at least one --tenant spec";
      2
    | Ok tenants ->
      let obs = Obs.create () in
      let traces =
        match trace_dir with
        | None -> []
        | Some dir -> tenant_trace_sinks obs dir tenants
      in
      let result =
        Hub_inproc.run ~obs ~corpus_sync ?journal ?heartbeat_timeout ?kill
          ?halt_after ~farms tenants ~resolve:hub_target
      in
      List.iter close_out traces;
      (match result with
      | Error e ->
        prerr_endline e;
        1
      | Ok o when o.Hub_inproc.halted ->
        (* Nothing on stdout: the halted run is an interrupted hub, and
           its resumed successor must print the complete summary alone
           for CI's cmp against an uninterrupted run. *)
        Printf.eprintf "halted after %d payloads (journal holds the rest)\n"
          o.Hub_inproc.payloads;
        0
      | Ok o ->
        (* Summary on stdout is deterministic (cmp-able by CI); the
           wall clock goes to stderr. *)
        print_string (Hub_inproc.summary o);
        Printf.eprintf "wall %.3fs\n" o.Hub_inproc.wall_s;
        0))
  | false, Some socket, Ok kill ->
    if kill <> None || halt_after <> None then begin
      prerr_endline
        "eof serve: --kill-worker/--halt-after are --inproc fault drills \
         (kill the actual processes in socket mode)";
      2
    end
    else (
      match Hub_socket.serve ~corpus_sync ?max_campaigns ?journal
              ?heartbeat_timeout ~socket ~resolve:hub_target ()
      with
      | Ok () -> 0
      | Error e ->
        prerr_endline e;
        1)

let serve_cmd =
  let inproc =
    Arg.(value & flag
         & info [ "inproc" ]
             ~doc:"Run the whole fleet deterministically in this process: every farm on \
                   one cooperative schedule, a virtual clock, protocol traffic through \
                   in-memory queues (still framed through the wire codec). Rerunning the \
                   same command prints a byte-identical summary and traces.")
  in
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Serve clients and workers on a Unix domain socket at $(docv). The hub \
                   hosts no farms: start $(b,eof worker --connect) $(docv) processes to \
                   execute shards, then $(b,eof submit --socket) $(docv) campaigns.")
  in
  let farms =
    Arg.(value & opt int 2
         & info [ "farms" ] ~docv:"N"
             ~doc:"Worker count (--inproc mode; socket-mode workers are external processes).")
  in
  let tenant =
    Arg.(value & opt_all string []
         & info [ "tenant" ] ~docv:"SPEC"
             ~doc:"Submit a tenant campaign (repeatable, --inproc mode): comma-separated \
                   $(b,key=value) pairs over defaults — keys $(b,name), $(b,os), $(b,seed), \
                   $(b,iterations), $(b,boards), $(b,farms), $(b,sync), $(b,backend), \
                   $(b,reset), $(b,schedule). \
                   Example: $(b,name=alice,os=Zephyr,seed=7,iterations=400,farms=2).")
  in
  let trace_dir =
    Arg.(value & opt (some string) None
         & info [ "trace-dir" ] ~docv:"DIR"
             ~doc:"Write one JSONL telemetry trace per tenant into $(docv) \
                   ($(i,tenant).jsonl), each event tagged and filtered by tenant.")
  in
  let no_corpus_sync =
    Arg.(value & flag
         & info [ "no-corpus-sync" ]
             ~doc:"Disable cross-farm seed transplanting (for measuring its overhead).")
  in
  let max_campaigns =
    Arg.(value & opt (some int) None
         & info [ "max-campaigns" ] ~docv:"N"
             ~doc:"Socket mode: exit after $(docv) campaigns complete (default: serve forever).")
  in
  let journal =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"FILE"
             ~doc:"Append every state-changing frame to $(docv) before applying it. A hub \
                   restarted on the same journal replays it and resumes: finished \
                   campaigns keep their digests, unfinished ones restart from their seeds.")
  in
  let heartbeat_timeout =
    Arg.(value & opt (some float) None
         & info [ "heartbeat-timeout" ] ~docv:"S"
             ~doc:"Declare a worker dead after $(docv) seconds of silence while it holds \
                   leases; its shards are revoked and reassigned to survivors. Wall-clock \
                   seconds in socket mode, virtual seconds with --inproc (default 30).")
  in
  let kill_worker =
    Arg.(value & opt (some string) None
         & info [ "kill-worker" ] ~docv:"W@N"
             ~doc:"Fault drill (--inproc): silence worker $(i,W) after its $(i,N)-th \
                   payload — no EOF, only the heartbeat deadline notices. Deterministic: \
                   reruns print byte-identical summaries.")
  in
  let halt_after =
    Arg.(value & opt (some int) None
         & info [ "halt-after" ] ~docv:"N"
             ~doc:"Fault drill (--inproc): abandon the drive after $(docv) total payloads, \
                   simulating a hub crash. Prints nothing on stdout; rerun with the same \
                   --journal to resume and print the full summary.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the fleet hub: shard tenant campaigns across farms, sync corpora, dedup crashes fleet-wide")
    Term.(
      const serve $ inproc $ socket $ farms $ tenant $ trace_dir $ no_corpus_sync
      $ max_campaigns $ journal $ heartbeat_timeout $ kill_worker $ halt_after)

let submit socket spec =
  match Hub_tenant.of_spec spec with
  | Error e ->
    prerr_endline e;
    2
  | Ok config ->
    (match Hub_socket.submit ~socket config with
    | Ok digest ->
      print_endline digest;
      0
    | Error e ->
      prerr_endline e;
      1)

let submit_cmd =
  let socket =
    Arg.(required & opt (some string) None
         & info [ "socket" ] ~docv:"PATH" ~doc:"The hub's Unix domain socket.")
  in
  let spec =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"SPEC"
             ~doc:"Tenant campaign spec, comma-separated $(b,key=value) pairs \
                   (see $(b,eof serve --tenant)).")
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Submit a tenant campaign to a running hub and wait for its digest")
    Term.(const submit $ socket $ spec)

(* --- eof worker / eof status -------------------------------------------- *)

let worker connect name log_level =
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "w%d" (Unix.getpid ())
  in
  match console_level_of_string log_level with
  | Error e ->
    prerr_endline e;
    2
  | Ok console_level ->
    let obs = Obs.create () in
    (match console_level with
    | Some min_level -> Obs.add_sink obs (Obs.console_sink ~min_level ())
    | None -> ());
    (match Hub_socket.worker ~obs ~socket:connect ~name ~resolve:hub_target () with
    | Ok () -> 0
    | Error e ->
      prerr_endline (Printf.sprintf "eof worker %s: %s" name e);
      1)

let worker_cmd =
  let connect =
    Arg.(required & opt (some string) None
         & info [ "connect" ] ~docv:"PATH"
             ~doc:"The hub's Unix domain socket (retries while the hub comes up).")
  in
  let wname =
    Arg.(value & opt (some string) None
         & info [ "name" ] ~docv:"NAME"
             ~doc:"Worker name shown in $(b,eof status) (default: w$(i,PID)).")
  in
  let log_level =
    Arg.(value & opt string "info"
         & info [ "log-level" ] ~docv:"LEVEL"
             ~doc:"Console telemetry on stderr at $(docv): $(b,trace), $(b,debug), \
                   $(b,info), $(b,warn), $(b,error), or $(b,off).")
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:"Run a farm worker process: connect to a hub, execute leased shards until \
             the hub shuts down")
    Term.(const worker $ connect $ wname $ log_level)

let status connect =
  match Hub_socket.status ~socket:connect with
  | Error e ->
    prerr_endline e;
    1
  | Ok (rows, workers) ->
    if rows = [] then print_endline "no campaigns"
    else
      List.iter
        (fun (r : Eof_hub.Protocol.status_row) ->
          Printf.printf
            "%-16s #%d %-10s %-8s shards %d/%d | executed %d | coverage %d | crashes %d\n"
            r.Eof_hub.Protocol.tenant r.Eof_hub.Protocol.campaign
            r.Eof_hub.Protocol.os
            (if r.Eof_hub.Protocol.finished then "done" else "running")
            r.Eof_hub.Protocol.shards_done r.Eof_hub.Protocol.shards
            r.Eof_hub.Protocol.executed r.Eof_hub.Protocol.coverage
            r.Eof_hub.Protocol.crashes)
        rows;
    if workers = [] then print_endline "no workers"
    else
      List.iter
        (fun (w : Eof_hub.Protocol.worker_row) ->
          Printf.printf "worker %d %-16s %-5s leases %d\n" w.Eof_hub.Protocol.worker
            w.Eof_hub.Protocol.name
            (if w.Eof_hub.Protocol.alive then "alive" else "dead")
            w.Eof_hub.Protocol.leases)
        workers;
    0

let status_cmd =
  let connect =
    Arg.(required & opt (some string) None
         & info [ "connect" ] ~docv:"PATH" ~doc:"The hub's Unix domain socket.")
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:"Query a running hub: per-tenant shard progress, worker liveness, crash counts")
    Term.(const status $ connect)

let main_cmd =
  let doc = "feedback-guided fuzzing of embedded OSs over a (simulated) debug port" in
  Cmd.group
    (Cmd.info "eof" ~version:"1.0.0" ~doc)
    [ fuzz_cmd; trace_cmd; spec_cmd; targets_cmd; artifact_cmd; serve_cmd;
      submit_cmd; worker_cmd; status_cmd ]

let () = exit (Cmd.eval' main_cmd)
