(* The benchmark's workloads and one fixed-budget repetition of each.

   A repetition always runs its whole payload budget on a pinned
   campaign seed; nothing here looks at the wall clock to decide how
   much work to do. Counts are therefore exact, and wall time is the
   only thing that varies between repetitions. *)

module Campaign = Eof_core.Campaign
module Crash = Eof_core.Crash
module Targets = Eof_expt.Targets
module Machine = Eof_agent.Machine
module Osbuild = Eof_os.Osbuild
module Inproc = Eof_hub.Inproc
module Tenant = Eof_hub.Tenant
module Worker = Eof_hub.Worker

type solo = { os : string; backend : Machine.backend; reset_policy : Campaign.reset_policy }

type fleet = {
  tenants : (string * string * int64) list;  (** name, OS, seed offset *)
  farms : int;
  boards : int;
}

type shape = Solo of solo | Fleet of fleet

type t = {
  name : string;
  shape : shape;
  budget : int;  (** payloads per repetition (a fleet splits it evenly over tenants) *)
  seed : int64;  (** default campaign seed *)
  bugs : int list;  (** Table-2 ids the pinned seed finds within the budget *)
  core : int list;
      (** the part of [bugs] that campaign seeds 1-10 and 123 all find:
          the set a held-out seed must find *)
}

let all =
  [
    {
      name = "link-zephyr";
      shape = Solo { os = "Zephyr"; backend = Machine.Link; reset_policy = Campaign.Ladder };
      budget = 8000;
      seed = 7L;
      bugs = [ 1; 2; 3; 4 ];
      core = [ 1; 3; 4 ];
    };
    {
      name = "fresh-native";
      shape =
        Solo
          {
            os = "Zephyr";
            backend = Machine.Native;
            reset_policy = Campaign.Fresh_per_program;
          };
      budget = 1200;
      seed = 7L;
      bugs = [ 1; 3; 4 ];
      core = [ 3; 4 ];
    };
    {
      name = "hang-rtthread";
      shape = Solo { os = "RT-Thread"; backend = Machine.Native; reset_policy = Campaign.Ladder };
      budget = 2000;
      seed = 7L;
      bugs = [ 5; 6; 8; 9; 12 ];
      core = [ 8 ];
    };
    {
      name = "hub-fleet";
      shape =
        Fleet
          {
            tenants = [ ("alice", "Zephyr", 0L); ("bob", "FreeRTOS", 4L) ];
            farms = 2;
            boards = 2;
          };
      budget = 8000;
      seed = 7L;
      bugs = [ 1; 3; 4 ];
      core = [ 1; 3; 4 ];
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

let names = List.map (fun w -> w.name) all

(* The named bug set a run must find, and whose completion [ttb_s]
   times. *)
let named_bugs w ~seed = if seed = w.seed then w.bugs else w.core

let covers w ~seed ids = List.for_all (fun id -> List.mem id ids) (named_bugs w ~seed)

let target_exn os =
  match Targets.find os with
  | Some t -> t
  | None -> invalid_arg ("perfbench: unknown OS " ^ os)

(* One repetition's observable results. *)
type rep = {
  digest : string;
  payloads : int;  (** payload results produced *)
  aborted : bool;  (** stopped before the budget *)
  setup_s : float;  (** warm, in this process *)
  phase_s : float;  (** first payload to the last *)
  stamps : (int * float) list;
      (** (payloads done, wall seconds since the first payload), in
          order; the last stamp is the end of the phase *)
  ttb_at : int option;  (** payloads done when the named bug set was complete *)
  edges : int;
  bug_ids : int list;
  virtual_s : float option;
  crashes : Crash.t list;
  minor_words : float;  (** allocated during the payload phase *)
  promoted_words : float;
  major_collections : int;
}

let gc_mark () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.promoted_words, s.Gc.major_collections)

(* Allocation counts start from a collected heap, so promotion and
   collection counts do not depend on what the process did before. *)
let gc_start () =
  Gc.full_major ();
  gc_mark ()

(* --- solo campaigns ---------------------------------------------------- *)

let solo_config w s ~seed =
  {
    Campaign.default_config with
    seed;
    iterations = w.budget;
    backend = s.backend;
    reset_policy = s.reset_policy;
  }

let solo_setup ?obs w s ~seed =
  let build = Targets.build_hw (target_exn s.os) in
  match Campaign.init ?obs (solo_config w s ~seed) build with
  | Ok st -> st
  | Error e -> failwith ("campaign init: " ^ Eof_util.Eof_error.to_string e)

(* Stamps every [budget / blocks] payloads and at the payload that
   completes the named bug set. Every repetition does the same work
   between the same stamps, so blocks are comparable across
   repetitions. *)
let blocks = 50

(* [step_samples], when given, receives the wall seconds of every
   [Campaign.step]. *)
let solo_rep ?obs ?step_samples w s ~seed =
  let t0 = Unix.gettimeofday () in
  let st = solo_setup ?obs w s ~seed in
  let m0, p0, c0 = gc_start () in
  let t1 = Unix.gettimeofday () in
  let block = max 1 (w.budget / blocks) in
  let stamps = ref [] and ttb_at = ref None and seen_events = ref 0 in
  while not (Campaign.finished st) do
    (match step_samples with
     | None -> Campaign.step st
     | Some samples ->
       let a = Unix.gettimeofday () in
       Campaign.step st;
       samples := (Unix.gettimeofday () -. a) :: !samples);
    let i = Campaign.iteration st in
    let events = Campaign.crash_events_so_far st in
    let completes =
      events <> !seen_events
      && (seen_events := events;
          !ttb_at = None && covers w ~seed (Targets.found_ids (Campaign.crashes_so_far st)))
    in
    if completes then ttb_at := Some i;
    if completes || i mod block = 0 then stamps := (i, Unix.gettimeofday () -. t1) :: !stamps
  done;
  let t2 = Unix.gettimeofday () in
  let m1, p1, c1 = gc_mark () in
  let done_ = Campaign.iteration st in
  let stamps =
    match !stamps with
    | (i, _) :: _ as l when i = done_ -> List.rev l
    | l -> List.rev ((done_, t2 -. t1) :: l)
  in
  let o = Campaign.finish st in
  {
    digest = Eof_core.Report.campaign_digest o;
    payloads = o.Campaign.iterations_done;
    aborted = o.Campaign.abort_cause <> None;
    setup_s = t1 -. t0;
    phase_s = snd (List.nth stamps (List.length stamps - 1));
    stamps;
    ttb_at = !ttb_at;
    edges = o.Campaign.coverage;
    bug_ids = Targets.found_ids o.Campaign.crashes;
    virtual_s = Some o.Campaign.virtual_s;
    crashes = o.Campaign.crashes;
    minor_words = m1 -. m0;
    promoted_words = p1 -. p0;
    major_collections = c1 - c0;
  }

(* --- the in-process fleet ---------------------------------------------- *)

(* What the hub needs to know about a personality, as [eof serve]
   resolves it. *)
let resolve os =
  match Targets.find os with
  | None -> Error ("unknown OS " ^ os)
  | Some target ->
    let table = Osbuild.api_signatures (Targets.build_hw target) in
    (match Eof_spec.Synth.validated_of_api table with
     | Error e -> Error (os ^ ": spec synthesis failed: " ^ e)
     | Ok spec -> Ok { Worker.mk_build = (fun _board -> Targets.build_hw target); spec; table })

let tenants w f ~seed =
  let per_tenant = w.budget / List.length f.tenants in
  List.map
    (fun (tenant, os, offset) ->
      {
        Tenant.default with
        tenant;
        os;
        seed = Int64.add seed offset;
        iterations = per_tenant;
        boards = f.boards;
        farms = f.farms;
      })
    f.tenants

(* Scratch files live under the working directory: the benchmark reads
   and writes nothing outside the checkout it runs in. Names are fixed
   (no pid) so that allocation, and with it every GC count, is the same
   in every run. *)
let scratch_dir = "_perfbench"

let ensure_scratch_dir () =
  try Unix.mkdir scratch_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let scratch_file tag =
  ensure_scratch_dir ();
  Filename.concat scratch_dir tag

let remove_file path = try Sys.remove path with Sys_error _ -> ()

let remove_scratch_dir () = try Unix.rmdir scratch_dir with Unix.Unix_error _ -> ()

(* One [Inproc.run] with corpus sync and a fresh journal, the way
   [eof serve --inproc --journal] runs it. *)
let fleet_run ?obs ?halt_after w f ~seed ~journal =
  ensure_scratch_dir ();
  remove_file journal;
  (* Each run starts from a collected heap: the previous run's fleet is
     garbage of the order of 100 MB. *)
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let r =
    Inproc.run ?obs ~corpus_sync:true ~journal ?halt_after ~farms:f.farms
      (tenants w f ~seed) ~resolve
  in
  let wall = Unix.gettimeofday () -. t0 in
  match r with
  | Ok o -> (o, wall)
  | Error e -> failwith ("inproc fleet: " ^ e)

let fleet_bug_ids (o : Inproc.outcome) =
  Targets.found_ids (List.map fst o.Inproc.fleet_crashes)

(* [Inproc.run] has no per-payload hook, so set-up is the wall time of
   a run halted after its first payload step. *)
let fleet_setup w f ~seed ~journal = snd (fleet_run ~halt_after:1 w f ~seed ~journal)

(* The fleet learns of a bug when a farm reports it, so time to bug is
   the wall time of a run halted at the first eighth of the budget by
   which the hub knows the whole named set. The eighth is found once,
   by bisection over halted runs, and is a pure function of the seed. *)
let ttb_eighth w f ~seed ~journal =
  let knows j =
    let o, _ = fleet_run ~halt_after:(j * w.budget / 8) w f ~seed ~journal in
    covers w ~seed (fleet_bug_ids o)
  in
  let rec search lo hi =
    if lo >= hi then hi
    else
      let mid = (lo + hi) / 2 in
      if knows mid then search lo mid else search (mid + 1) hi
  in
  search 1 8

let fleet_rep ?obs ?ttb_eighth w f ~seed ~journal =
  let ms, ps, _ = gc_mark () in
  let setup_s = fleet_setup w f ~seed ~journal in
  let m0, p0, c0 = gc_mark () in
  let o, wall = fleet_run ?obs w f ~seed ~journal in
  let m1, p1, c1 = gc_mark () in
  (* The full run's own set-up, taken as the allocation of the halted
     set-up run, is left out of the payload phase's words. *)
  let sm, sp = (m0 -. ms, p0 -. ps) in
  let phase_s = wall -. setup_s in
  let ttb =
    Option.bind ttb_eighth (fun j ->
        let k = j * w.budget / 8 in
        let halted, t = fleet_run ~halt_after:k w f ~seed ~journal in
        if covers w ~seed (fleet_bug_ids halted) then Some (k, t -. setup_s) else None)
  in
  {
    digest = o.Inproc.fleet_digest;
    payloads = o.Inproc.payloads;
    aborted = o.Inproc.halted;
    setup_s;
    phase_s;
    stamps = Option.to_list ttb @ [ (o.Inproc.payloads, phase_s) ];
    ttb_at = Option.map fst ttb;
    edges = List.fold_left (fun acc (r : Inproc.tenant_result) -> acc + r.Inproc.coverage) 0
        o.Inproc.tenants;
    bug_ids = fleet_bug_ids o;
    virtual_s = None;
    crashes = List.map fst o.Inproc.fleet_crashes;
    minor_words = m1 -. m0 -. sm;
    promoted_words = p1 -. p0 -. sp;
    major_collections = c1 - c0;
  }

(* --- dispatch ---------------------------------------------------------- *)

(* Cold set-up: run in a fresh process, so no build, spec or image
   memo is warm. *)
let setup_once w ~seed =
  match w.shape with
  | Solo s ->
    let t0 = Unix.gettimeofday () in
    ignore (solo_setup w s ~seed);
    Unix.gettimeofday () -. t0
  | Fleet f ->
    let journal = scratch_file "setup.jnl" in
    let t = fleet_setup w f ~seed ~journal in
    remove_file journal;
    t
