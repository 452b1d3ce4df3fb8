(* perfbench: wall-clock benchmark of the fuzzer, end to end and per
   layer.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   [--trace 0] repeats the workload's fixed payload budget, untraced (no
   Obs sink), until [--seconds] have passed, and reports the
   end-to-end metrics, with wall times normalized by a reference kernel
   (refkernel.ml). [--trace 1] adds one traced repetition with a
   wall-stamping sink plus per-layer timings, and reports the per-layer
   metrics. The last stdout line is the JSON result; a table with each
   metric's clock precedes it. See README.md. *)

open Perfbench
module Obs = Eof_obs.Obs

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let min_reps = 3

let cold_probes = 21

(* The percentile of each block's duration across repetitions that the
   estimate keeps (see Summary.block_estimate and README.md). *)
let block_percentile = 25.

let median xs = Eof_util.Stats.percentile 50. xs

let median_of f reps = median (List.map f reps)

let wall name v unit_ = Metric.make name v unit_ Metric.Wall

let exact name v unit_ = Metric.make name v unit_ Metric.Exact

(* Repeat [rep] at least [min_reps] times, then while one more
   repetition, as long as the longest so far, still ends by
   [deadline]. *)
let repeat ~min_reps ~deadline rep =
  let rec go i longest acc =
    let now = Unix.gettimeofday () in
    if i >= min_reps && now +. longest > deadline then List.rev acc
    else
      let r = rep i in
      go (i + 1) (Float.max longest (Unix.gettimeofday () -. now)) (r :: acc)
  in
  go 0 0. []

(* Cold set-up: each probe is a fresh process that runs the set-up
   alone, then the reference kernel, and prints both wall times. The
   set-up is normalized by its own process's kernel. *)
let cold_setups (w : Workload.t) ~campaign_seed =
  let args =
    [ "--setup-probe"; "--workload"; w.Workload.name; "--campaign-seed";
      Int64.to_string campaign_seed ]
  in
  List.init cold_probes (fun _ ->
      let ic =
        Unix.open_process_args_in Sys.executable_name
          (Array.of_list (Sys.executable_name :: args))
      in
      let v =
        try Some (Scanf.sscanf (input_line ic) "%f %f" (fun s k -> (s, k)))
        with End_of_file | Scanf.Scan_failure _ | Failure _ -> None
      in
      match (Unix.close_process_in ic, v) with
      | Unix.WEXITED 0, Some (setup_s, kernel_s) -> Refkernel.normalize ~kernel_s setup_s
      | _ -> failwith "set-up probe failed")

(* Run-level checks shared by both modes: the full budget, one digest
   for every repetition, and the named bug set. *)
let check_reps tally (w : Workload.t) ~campaign_seed (reps : Workload.rep list) =
  let first = List.hd reps in
  List.iteri
    (fun i (r : Workload.rep) ->
      Metric.attempt tally w.Workload.budget;
      let short = w.Workload.budget - r.Workload.payloads in
      if short > 0 || r.Workload.aborted then
        Metric.fail tally ~payloads:(max 1 short)
          (Printf.sprintf "repetition %d stopped at %d of %d payloads" i r.Workload.payloads
             w.Workload.budget)
      else begin
        Metric.check tally ~payloads:r.Workload.payloads
          (r.Workload.digest = first.Workload.digest)
          (Printf.sprintf "repetition %d digest %S differs from %S" i r.Workload.digest
             first.Workload.digest);
        Metric.check tally ~payloads:r.Workload.payloads
          (Workload.covers w ~seed:campaign_seed r.Workload.bug_ids)
          (Printf.sprintf "repetition %d found bugs [%s], missing part of [%s]" i
             (String.concat ";" (List.map string_of_int r.Workload.bug_ids))
             (String.concat ";"
                (List.map string_of_int (Workload.named_bugs w ~seed:campaign_seed))))
      end)
    reps

let rep_of (w : Workload.t) ~campaign_seed ?obs ?step_samples ?ttb_eighth ~journal () =
  match w.Workload.shape with
  | Workload.Solo s -> Workload.solo_rep ?obs ?step_samples w s ~seed:campaign_seed
  | Workload.Fleet f -> Workload.fleet_rep ?obs ?ttb_eighth w f ~seed:campaign_seed ~journal

let payloads_per_s (r : Workload.rep) = float_of_int r.Workload.payloads /. r.Workload.phase_s

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* --- --trace 0: end-to-end metrics ------------------------------------ *)

(* Repetitions until [seconds] have passed since the run began, each
   bracketed by reference kernel runs. A repetition's stamps are
   normalized by the mean of the two kernel times around it, which
   divides out a slow state of the host that spans the repetition. *)
let untraced tally (w : Workload.t) ~campaign_seed ~seconds ~journal =
  let deadline = Unix.gettimeofday () +. seconds in
  let setups = cold_setups w ~campaign_seed in
  let ttb_eighth =
    match w.Workload.shape with
    | Workload.Fleet f -> Some (Workload.ttb_eighth w f ~seed:campaign_seed ~journal)
    | Workload.Solo _ -> None
  in
  (* Warm the build, spec and image memos first: the fleet's payload
     phase is a full run minus a set-up run, and both must be warm. *)
  ignore (Workload.setup_once w ~seed:campaign_seed);
  let heap = ref 0. and kernel = ref (Refkernel.time ()) in
  let runs =
    repeat ~min_reps ~deadline (fun i ->
        let before = !kernel in
        let r = rep_of w ~campaign_seed ?ttb_eighth ~journal () in
        (* The heap peak after the first repetition is a pure function
           of the allocation sequence so far, so it repeats exactly. *)
        if i = 0 then heap := heap_peak_mb ();
        kernel := Refkernel.time ();
        let kernel_s = (before +. !kernel) /. 2. in
        Printf.eprintf
          "repetition %d: set-up %.4f s, payloads %.4f s, kernel %.4f s, bug set at %s\n%!" i
          r.Workload.setup_s r.Workload.phase_s kernel_s
          (match r.Workload.ttb_at with
           | Some k -> Printf.sprintf "payload %d, %.4f s" k (List.assoc k r.Workload.stamps)
           | None -> "-");
        (r, kernel_s))
  in
  let reps = List.map fst runs in
  check_reps tally w ~campaign_seed reps;
  let first = List.hd reps in
  Metric.check tally ~payloads:0
    (first.Workload.ttb_at <> None
     && List.for_all (fun (r : Workload.rep) -> r.Workload.ttb_at = first.Workload.ttb_at) reps)
    "the named bug set was not completed at the same payload on every repetition";
  let normalized ((r : Workload.rep), kernel_s) =
    List.map (fun (k, t) -> (k, Refkernel.normalize ~kernel_s t)) r.Workload.stamps
  in
  let phase_s, ttb_s =
    match Summary.block_estimate ~p:block_percentile (List.map normalized runs) with
    | Some cumulative ->
      ( snd (List.nth cumulative (List.length cumulative - 1)),
        Option.fold ~none:0. ~some:(fun k -> List.assoc k cumulative) first.Workload.ttb_at )
    | None ->
      Metric.fail tally ~payloads:0 "repetitions were stamped at different payload counts";
      let phase ((r : Workload.rep), kernel_s) =
        Refkernel.normalize ~kernel_s r.Workload.phase_s
      in
      (median_of phase runs, 0.)
  in
  [
    wall "payloads_per_s" (float_of_int first.Workload.payloads /. phase_s) "1/s";
    wall "ttb_s" ttb_s "s";
    wall "setup_s" (median setups) "s";
    exact "heap_peak_mb" !heap "MB";
    exact "edges" (float_of_int first.Workload.edges) "count";
    exact "bugs" (float_of_int (List.length first.Workload.bug_ids)) "count";
    exact "payloads" (float_of_int first.Workload.payloads) "count";
  ]

(* --- --trace 1: per-layer metrics ------------------------------------- *)

let traced tally (w : Workload.t) ~campaign_seed ~journal =
  let plain = List.init min_reps (fun _ -> rep_of w ~campaign_seed ~journal ()) in
  let obs = Obs.create () in
  let g = Gapsink.create () in
  Obs.add_sink obs (Gapsink.sink g);
  let step_samples = ref [] in
  let r = rep_of w ~campaign_seed ~obs ~step_samples ~journal () in
  check_reps tally w ~campaign_seed (plain @ [ r ]);
  let first = List.hd plain in
  let p = float_of_int r.Workload.payloads in
  let per_payload x = Metric.ratio x p in
  let counter name = float_of_int (Obs.counter_value obs name) in
  let steps =
    match !step_samples with
    | [] -> Gapsink.payload_gaps g
    | samples -> Array.of_list samples
  in
  let step_p50_us, step_p99_us =
    if Array.length steps = 0 then (0., 0.)
    else
      let p50 = Summary.percentile steps 50. *. 1e6 in
      match Summary.tail steps with
      | Some (99., v) -> (p50, v *. 1e6)
      | _ ->
        Metric.fail tally ~payloads:0
          (Printf.sprintf "%d step samples leave fewer than 10 beyond p99"
             (Array.length steps));
        (p50, 0.)
  in
  let closed k = Gapsink.closed_s g k in
  let count k = float_of_int (Gapsink.count g k) in
  let stops, stop_s = Gapsink.total g ~prefix:"stop." in
  let _, liveness_s = Gapsink.total g ~prefix:"liveness." in
  let stalls = count "liveness.pc-stalled" in
  let restores = counter "snapshot.restores" in
  let resets = count "reset" in
  let syncs = count "epoch-sync" in
  let exchanges = counter "transport.exchanges" in
  let records = counter "native.records" +. counter "covlink.records" in
  let os, dst_os =
    match w.Workload.shape with
    | Workload.Solo s -> (s.Workload.os, if s.Workload.os = "FreeRTOS" then "Zephyr" else "FreeRTOS")
    | Workload.Fleet f ->
      (match f.Workload.tenants with
       | (_, a, _) :: (_, b, _) :: _ -> (a, b)
       | _ -> invalid_arg "hub-fleet needs two tenants")
  in
  let personality = Layers.personality os in
  let progs, gen_ns, gen_words = Layers.gen personality ~seed:campaign_seed ~n:2000 in
  let add_ns, next_ns = Layers.corpus progs ~seed:campaign_seed in
  let hub =
    match w.Workload.shape with
    | Workload.Fleet _ -> Some (Layers.hub ~journal ~scratch:(Workload.scratch_file "append.jnl"))
    | Workload.Solo _ -> None
  in
  let hubf f = match hub with Some h -> f h | None -> 0. in
  let virtual_s =
    match r.Workload.virtual_s with Some v -> v | None -> Gapsink.max_virtual_s g
  in
  let untraced_pps = median_of payloads_per_s plain in
  let ratio = Metric.ratio in
  [
    exact "campaign.steps" (float_of_int (Array.length steps)) "count";
    wall "campaign.step_p50_us" step_p50_us "us";
    wall "campaign.step_p99_us" step_p99_us "us";
    wall "gen.ns_per_prog" gen_ns "ns";
    exact "gen.words_per_prog" gen_words "words";
    wall "wire.ns_per_payload" (Layers.wire personality progs) "ns";
    exact "link.exchanges_per_payload" (per_payload exchanges) "count";
    exact "link.bytes_per_payload"
      (per_payload (counter "transport.bytes_tx" +. counter "transport.bytes_rx"))
      "bytes";
    wall "link.us_per_exchange" (ratio (closed "exchange" *. 1e6) (count "exchange")) "us";
    exact "exec.stops_per_payload"
      (per_payload (counter "native.stops" +. counter "session.stops"))
      "count";
    wall "exec.us_per_stop" (ratio (stop_s *. 1e6) (float_of_int stops)) "us";
    exact "cov.records_per_payload" (per_payload records) "count";
    wall "cov.ns_per_record" (ratio (closed "drain" *. 1e9) records) "ns";
    exact "monitor.log_bytes_per_payload"
      (per_payload (float_of_int (Gapsink.log_bytes g)))
      "bytes";
    wall "monitor.ns_per_kb" (Layers.monitor r.Workload.crashes) "ns";
    exact "liveness.stalls" stalls "count";
    exact "liveness.quanta_per_stall" (ratio (count "stop.quantum") stalls) "count";
    wall "liveness.ms_per_stall"
      (ratio ((liveness_s +. closed "stop.quantum") *. 1e3) stalls)
      "ms";
    exact "boot.boots_per_kpayload" (per_payload (resets *. 1000.)) "count";
    wall "boot.us_per_boot" (ratio (Gapsink.opened_s g "reset" *. 1e6) resets) "us";
    wall "boot.boot_ok_us" (Layers.boot_ok personality ~n:200) "us";
    exact "snapshot.restores" restores "count";
    exact "snapshot.pages_per_restore" (ratio (counter "snapshot.pages_copied") restores)
      "pages";
    wall "snapshot.us_per_restore"
      (ratio (closed "snapshot-restore" *. 1e6) (count "snapshot-restore"))
      "us";
    exact "corpus.admits" (counter "campaign.corpus_admits") "count";
    exact "corpus.size" (float_of_int (Gapsink.corpus_size g)) "count";
    wall "corpus.ns_per_add" add_ns "ns";
    wall "corpus.ns_per_next" next_ns "ns";
    wall "corpus.us_per_transplant"
      (Layers.transplant ~dst:(Layers.personality dst_os) progs)
      "us";
    exact "farm.syncs" syncs "count";
    wall "farm.us_per_sync" (ratio (closed "epoch-sync" *. 1e6) syncs) "us";
    exact "hub.frames" (hubf (fun h -> float_of_int h.Layers.frames)) "count";
    exact "hub.bytes_per_payload"
      (hubf (fun h -> per_payload (float_of_int h.Layers.journal_bytes)))
      "bytes";
    wall "hub.codec_ns_per_frame" (hubf (fun h -> h.Layers.codec_ns_per_frame)) "ns";
    wall "hub.journal_us_per_append" (hubf (fun h -> h.Layers.us_per_append)) "us";
    wall "hub.journal_replay_ms" (hubf (fun h -> h.Layers.replay_ms)) "ms";
    exact "gc.minor_words_per_payload"
      (Metric.ratio first.Workload.minor_words (float_of_int first.Workload.payloads))
      "words";
    exact "gc.promoted_words_per_payload"
      (Metric.ratio first.Workload.promoted_words (float_of_int first.Workload.payloads))
      "words";
    exact "gc.major_collections" (float_of_int first.Workload.major_collections) "count";
    wall "trace.overhead_ratio" (ratio (p /. r.Workload.phase_s) untraced_pps) "ratio";
    Metric.make "virtual_payloads_per_s" (ratio p virtual_s) "1/s" Metric.Virtual;
  ]

(* --- command line ------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref (-1) in
  let campaign_seed = ref None and setup_probe = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat "|" Workload.names);
      ("--seed", Arg.Set_int seed, "N run seed (see README.md)");
      ("--seconds", Arg.Set_float seconds, "S measure for S seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ( "--campaign-seed",
        Arg.String (fun s -> campaign_seed := Int64.of_string_opt s),
        "N override the workload's pinned campaign seed" );
      ( "--setup-probe",
        Arg.Set setup_probe,
        " time one cold set-up and then the reference kernel, and print both" );
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match Workload.find !workload with
  | None ->
    prerr_endline ("unknown workload (want one of: " ^ String.concat ", " Workload.names ^ ")");
    exit 2
  | Some _ when (not !setup_probe) && (!trace < 0 || !trace > 1 || !seconds < 1.) ->
    prerr_endline usage;
    exit 2
  | Some w ->
    let campaign_seed = Option.value !campaign_seed ~default:w.Workload.seed in
    let journal = Workload.scratch_file "fleet.jnl" in
    let cleanup () =
      Workload.remove_file journal;
      Workload.remove_scratch_dir ()
    in
    if !setup_probe then begin
      let setup_s =
        Fun.protect ~finally:cleanup (fun () -> Workload.setup_once w ~seed:campaign_seed)
      in
      Printf.printf "%.9f %.9f\n" setup_s (Refkernel.time ())
    end
    else begin
      let tally = Metric.tally () in
      let metrics =
        Fun.protect ~finally:cleanup (fun () ->
            if !trace = 0 then untraced tally w ~campaign_seed ~seconds:!seconds ~journal
            else traced tally w ~campaign_seed ~journal)
      in
      List.iter (fun r -> prerr_endline ("check failed: " ^ r)) (List.rev tally.Metric.reasons);
      Printf.printf "# %s, campaign seed %Ld, run seed %d, %s\n" w.Workload.name campaign_seed
        !seed (if !trace = 0 then "untraced" else "traced");
      List.iter (fun m -> print_endline (Metric.table_line m)) metrics;
      print_endline (Metric.result_line tally metrics)
    end
