open Eof_os
module Rng = Eof_util.Rng
module Bitset = Eof_util.Bitset
module Machine = Eof_agent.Machine
module Obs = Eof_obs.Obs
module Eof_error = Eof_util.Eof_error

type config = {
  boards : int;
  sync_every : int;
  base : Campaign.config;
}

let default_config = { boards = 1; sync_every = 25; base = Campaign.default_config }

type sync_sample = { executed : int; virtual_s : float; coverage : int }

type outcome = {
  boards : int;
  coverage : int;
  coverage_bitmap : Bitset.t;
  crashes : Crash.t list;
  crash_events : int;
  executed_programs : int;
  iterations_done : int;
  corpus_size : int;
  final_corpus : Prog.t list;
  virtual_s : float;
  wall_s : float;
  syncs : int;
  sync_series : sync_sample list;
  per_board : Campaign.outcome array;
  dead_boards : int;
}

(* Stream [k] of a seed family derived from [base]: stream 0 keeps
   [base] (so a one-board farm is the campaign), the others derive
   statistically independent streams. Each family (board seeds, probe
   fault seeds, hub shard seeds) mixes with its own multiplier, so no
   two families collide. *)
let derive_seed ~mix base k =
  if k = 0 then base
  else Rng.next64 (Rng.create (Int64.add base (Int64.mul (Int64.of_int k) mix)))

(* The total payload budget split round-robin: the first (total mod
   shards) shards carry the remainder. *)
let shard_iterations ~total ~shards k =
  (total / shards) + (if k < total mod shards then 1 else 0)

(* --- shared (host-side) campaign state --------------------------------- *)

type shared = {
  fb : Feedback.t;  (* global coverage: the union of every shard's map *)
  corpus : Corpus.t;  (* the cross-board corpus shards pollinate through *)
  crashes : Crash.Ledger.t;  (* cross-board, in global discovery order *)
  mutable executed_synced : int;  (* payloads covered by past merges *)
  mutable virtual_max : float;  (* farm clock high-water mark at merges *)
  mutable syncs : int;
  mutable series_rev : sync_sample list;
  obs : Obs.t;  (* farm-level handle: epoch-sync events, no board tag *)
}

let make_shared ?obs ~edge_capacity ~boards ~seed () =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let s =
    {
      fb = Feedback.create ~edge_capacity;
      (* Big enough that no shard's survivors are evicted from the global
         view; its rng is never used (the farm never [pick]s from it). *)
      corpus = Corpus.create ~capacity:(512 * boards) ~rng:(Rng.create seed) ();
      crashes = Crash.Ledger.create ();
      executed_synced = 0;
      virtual_max = 0.;
      syncs = 0;
      series_rev = [];
      obs;
    }
  in
  (* Farm-level events are timestamped by the merge high-water mark,
     which the deterministic schedule makes a pure function of the seed. *)
  Obs.set_clock obs (fun () -> s.virtual_max);
  s

(* --- per-shard merge cursors ------------------------------------------- *)

(* Everything a shard publishes at an epoch is monotone: its coverage
   bitmap only gains bits, its corpus only counts additions up, its
   crash-event counter only increments, and the shared exchange corpus
   likewise. A cursor remembers each monotone counter at the shard's
   last merge. An unchanged counter proves the corresponding merge
   would import nothing, so the merge (frontier included) is skipped;
   a changed corpus counter is the admission number the next merge
   starts from ({!Corpus.merge}'s [~since]), so it walks only the seeds
   admitted since. Both are pure no-op removals: results are
   bit-identical to merging every whole corpus every epoch. *)
type cursor = {
  mutable cov : int;  (* shard coverage count at last push *)
  mutable added : int;  (* shard corpus total_added at last push/pull *)
  mutable crash_events : int;  (* shard crash events at last push *)
  mutable pulled : int;  (* shared corpus total_added at last pull *)
  mutable exec : int;  (* shard executed payloads already accounted *)
}

let make_cursor () = { cov = 0; added = 0; crash_events = 0; pulled = 0; exec = 0 }

(* Merge one shard's discoveries into the global structures. Cheap by
   construction: the coverage merge is one bitmap union, the corpus
   merge walks only the seeds admitted since the cursor, crash dedup only
   walks the shard's (short, already per-board-deduplicated) list — and
   the cursor elides each of those entirely when the shard found
   nothing new since its last epoch. *)
let merge_board shared st cur =
  let cov = Feedback.covered (Campaign.feedback st) in
  if cov <> cur.cov then begin
    ignore (Feedback.union_into ~dst:shared.fb ~src:(Campaign.feedback st) : int);
    cur.cov <- cov
  end;
  let added = Corpus.total_added (Campaign.corpus st) in
  if added <> cur.added then begin
    ignore (Corpus.merge shared.corpus (Campaign.corpus st) ~since:cur.added : int);
    cur.added <- added
  end;
  let events = Campaign.crash_events_so_far st in
  if events <> cur.crash_events then begin
    Crash.Ledger.add_all shared.crashes (Campaign.crashes_so_far st);
    cur.crash_events <- events
  end;
  let e = Campaign.executed_programs_so_far st in
  shared.executed_synced <- shared.executed_synced + (e - cur.exec);
  cur.exec <- e;
  shared.virtual_max <- Float.max shared.virtual_max (Campaign.virtual_s st)

(* Cross-pollination: pull the fleet's merged discoveries back into one
   shard, skipped when the shared corpus saw no addition since this
   shard's last pull. Right after a pull the shard corpus is a subset of
   the shared hash set, so the push cursor can jump too. *)
let pull_board shared st cur =
  let sa = Corpus.total_added shared.corpus in
  if sa <> cur.pulled then begin
    ignore (Corpus.merge (Campaign.corpus st) shared.corpus ~since:cur.pulled : int);
    cur.pulled <- sa;
    cur.added <- Corpus.total_added (Campaign.corpus st)
  end

let record_sample shared =
  shared.syncs <- shared.syncs + 1;
  let coverage = Feedback.covered shared.fb in
  if Obs.active shared.obs then
    Obs.emit shared.obs
      (Obs.Event.Epoch_sync
         { sync = shared.syncs; executed = shared.executed_synced; coverage });
  shared.series_rev <-
    {
      executed = shared.executed_synced;
      virtual_s = shared.virtual_max;
      coverage;
    }
    :: shared.series_rev

(* --- reentrant farm state ------------------------------------------------ *)

type t = {
  config : config;
  shared : shared;
  states : Campaign.state array;
  cursors : cursor array;
  mutable since : int;  (* payloads executed since the last epoch *)
  mutable paused : bool;  (* lease revoked: the scheduler skips this farm *)
  mutable result : outcome option;
  t0 : float;
}

let epoch t =
  let n = Array.length t.states in
  Array.iteri (fun i st -> merge_board t.shared st t.cursors.(i)) t.states;
  (* Cross-pollination is skipped for a single board — there is nothing
     to exchange, and skipping keeps the one-board farm bit-identical to
     the plain campaign even across corpus evictions. *)
  if n > 1 then
    Array.iteri (fun i st -> pull_board t.shared st t.cursors.(i)) t.states;
  record_sample t.shared

(* --- deterministic min-CPU scheduler ------------------------------------ *)

let finished t = Array.for_all Campaign.finished t.states

(* Round-robin by target CPU time: always step the board whose CPU
   clock is furthest behind (ties to the lowest index), which
   interleaves shards as N physical boards would interleave in real
   time — and with one board degenerates to the plain campaign loop.
   CPU time rather than full virtual time because the latter includes
   link latency, which only exists on the link backend: keying on it
   would make the interleaving backend-dependent and break the
   differential oracle's farm equality. *)
let next_board t =
  if t.paused then None
  else
  let n = Array.length t.states in
  let best = ref (-1) and best_t = ref infinity in
  for i = n - 1 downto 0 do
    if not (Campaign.finished t.states.(i)) then begin
      let time = Campaign.cpu_s t.states.(i) in
      if time <= !best_t then begin
        best := i;
        best_t := time
      end
    end
  done;
  if !best < 0 then None else Some !best

let next_cpu_s t =
  match next_board t with
  | None -> None
  | Some i -> Some (Campaign.cpu_s t.states.(i))

let step t =
  match next_board t with
  | None -> ()
  | Some i ->
    let st = t.states.(i) in
    let before = Campaign.executed_programs_so_far st in
    Campaign.step st;
    if Campaign.executed_programs_so_far st > before then t.since <- t.since + 1;
    if t.since >= t.config.sync_every then begin
      epoch t;
      t.since <- 0
    end

(* --- top level ---------------------------------------------------------- *)

let init ?obs ?inject_for (config : config) mk_build =
  if config.boards < 1 then Error (Eof_error.config "farm: boards must be >= 1")
  else if config.sync_every < 1 then Error (Eof_error.config "farm: sync_every must be >= 1")
  else begin
    let t0 = Unix.gettimeofday () in
    let in_board i r = Result.map_error (Eof_error.with_context (Printf.sprintf "board %d" i)) r in
    (* Each board is a full campaign of its own: its share of the budget,
       its own seed stream and its own fault-injector seed (each physical
       probe glitches independently). *)
    let board_config i =
      {
        config.base with
        seed = derive_seed ~mix:0x9E3779B97F4A7C15L config.base.seed i;
        iterations = shard_iterations ~total:config.base.iterations ~shards:config.boards i;
        fault_seed = derive_seed ~mix:0xD1B54A32D192ED03L config.base.fault_seed i;
      }
    in
    let board_obs i = Option.map (fun bus -> Obs.for_board bus i) obs in
    (* Every board's machine is brought up before any campaign arms its
       breakpoints, so the bring-up exchanges keep their place in the
       trace. [inject_for] (tests) swaps a board's machine for a link
       carrying the given fault schedule. *)
    let rec bring_up i acc =
      if i >= config.boards then Ok (Array.of_list (List.rev acc))
      else begin
        let build = mk_build i in
        let machine =
          match Option.bind inject_for (fun f -> f i) with
          | Some inject -> Machine.create ?obs:(board_obs i) ~inject build
          | None -> Campaign.machine_of_config ?obs:(board_obs i) (board_config i) build
        in
        match in_board i machine with
        | Ok machine -> bring_up (i + 1) ((build, machine) :: acc)
        | Error e -> Error e
      end
    in
    match bring_up 0 [] with
    | Error e -> Error e
    | Ok boards ->
      let edge_capacity = Osbuild.edge_capacity (fst boards.(0)) in
      if Array.exists (fun (b, _) -> Osbuild.edge_capacity b <> edge_capacity) boards
      then
        Error
          (Eof_error.config
             "farm: boards disagree on coverage-map capacity (different targets?)")
      else begin
        let rec init_all i acc =
          if i >= Array.length boards then Ok (Array.of_list (List.rev acc))
          else begin
            let build, machine = boards.(i) in
            match
              in_board i (Campaign.init ~machine ?obs:(board_obs i) (board_config i) build)
            with
            | Ok st -> init_all (i + 1) (st :: acc)
            | Error e -> Error e
          end
        in
        match init_all 0 [] with
        | Error e -> Error e
        | Ok states ->
          let shared =
            make_shared ?obs ~edge_capacity ~boards:config.boards
              ~seed:config.base.seed ()
          in
          Ok
            {
              config;
              shared;
              states;
              cursors = Array.init (Array.length states) (fun _ -> make_cursor ());
              since = 0;
              paused = false;
              result = None;
              t0;
            }
      end
  end

(* --- mid-run observers (for the hub worker) ----------------------------- *)

let coverage t = Feedback.covered t.shared.fb

let coverage_bitmap t = Feedback.snapshot t.shared.fb

let exchange_corpus t = t.shared.corpus

let crashes_so_far t = Crash.Ledger.to_list t.shared.crashes

let executed_so_far t = t.shared.executed_synced

let virtual_now t = t.shared.virtual_max

let syncs_so_far t = t.shared.syncs

(* A revoked lease must stop contributing immediately: run one
   off-cycle epoch so the shared structures reflect everything executed
   so far (the worker's final flush reads them), then freeze the
   scheduler. Pausing is terminal for this farm instance — the hub
   reassigns the shard to another worker, which rebuilds it fresh. *)
let pause t =
  if not t.paused then begin
    epoch t;
    t.since <- 0;
    t.paused <- true
  end

let paused t = t.paused

let adopt t progs =
  List.fold_left
    (fun n prog ->
      if Corpus.add t.shared.corpus ~prog ~new_edges:1 ~crashed:false then n + 1 else n)
    0 progs

let finish t =
  match t.result with
  | Some outcome -> outcome
  | None ->
    epoch t;
    let per_board = Array.map Campaign.finish t.states in
    (* The reported corpus is re-merged from the final shard corpora
       (shard order): unlike the exchange corpus it never contains seeds
       every shard has since evicted, and for one board it reproduces
       that board's corpus exactly. *)
    let final =
      Corpus.create ~capacity:(512 * t.config.boards)
        ~rng:(Rng.create t.config.base.seed) ()
    in
    Array.iter
      (fun st -> ignore (Corpus.merge final (Campaign.corpus st) ~since:0 : int))
      t.states;
    let sum f = Array.fold_left (fun a o -> a + f o) 0 per_board in
    let outcome =
      {
        boards = t.config.boards;
        coverage = Feedback.covered t.shared.fb;
        coverage_bitmap = Feedback.snapshot t.shared.fb;
        crashes = Crash.Ledger.to_list t.shared.crashes;
        crash_events = sum (fun o -> o.Campaign.crash_events);
        executed_programs = sum (fun o -> o.Campaign.executed_programs);
        iterations_done = sum (fun o -> o.Campaign.iterations_done);
        corpus_size = Corpus.size final;
        final_corpus = Corpus.progs final;
        virtual_s =
          Array.fold_left (fun a o -> Float.max a o.Campaign.virtual_s) 0. per_board;
        wall_s = Unix.gettimeofday () -. t.t0;
        syncs = t.shared.syncs;
        sync_series = List.rev t.shared.series_rev;
        per_board;
        dead_boards =
          Array.fold_left
            (fun a st -> if Campaign.is_dead st then a + 1 else a)
            0 t.states;
      }
    in
    t.result <- Some outcome;
    outcome

let run ?obs ?inject_for (config : config) mk_build =
  match init ?obs ?inject_for config mk_build with
  | Error e -> Error e
  | Ok t ->
    while not (finished t) do
      step t
    done;
    Ok (finish t)
