module Obs = Eof_obs.Obs
module Bitset = Eof_util.Bitset
module Corpus = Eof_core.Corpus
module Crash = Eof_core.Crash
module Report = Eof_core.Report
module Transplant = Eof_core.Transplant

type action = To_client of int * Protocol.t | To_worker of int * Protocol.t

(* One shard of one campaign, as the hub tracks it: the planned
   assignment plus the lease state machine layered on top. The epoch is
   the fencing token — bumped on every revocation, echoed by the owning
   worker on everything it sends back, so traffic from a worker whose
   lease was withdrawn (a zombie that missed its heartbeat deadline but
   is still flushing) is recognisably stale and dropped. *)
type lease = {
  assign : Shard.assignment;  (** as planned: epoch field is the birth epoch *)
  mutable epoch : int;
  mutable owner : int option;  (** worker id currently holding the lease *)
  mutable completed : bool;
  mutable last_owner : int;  (** previous owner, -1 if none (for telemetry) *)
}

type campaign = {
  id : int;
  config : Tenant.config;
  client : int;
  target : Worker.target;
  mutable corpus : Corpus.t;
      (** hub-side merged view of the tenant's corpus; its content-hash
          dedup is what broadcasts a pushed program at most once *)
  mutable bitmap : Bitset.t option;  (** allocated at the first heartbeat *)
  leases : lease array;  (** one per shard *)
  shard_exec : int array;
  shard_virtual : float array;
  mutable shards_done : int;
  mutable iterations_done : int;
  mutable crash_events : int;
  crashes : Crash.Ledger.t;  (** tenant-deduped, discovery order *)
  mutable syncs : int;
  mutable cross_in : int;
      (** retyped seeds adopted from other personalities; capped, see
          {!cross_cap} *)
  mutable digest : string option;
  obs : Obs.t;  (** tenant-scoped handle, clocked by the campaign *)
}

(* Same-personality shards exchange everything — their coverage maps
   are directly comparable. A cross-personality transplant is
   speculative: the destination has never judged it against its own
   coverage, so an unbounded relay drowns the destination's selection
   lottery in foreign seeds. Each campaign therefore adopts at most
   this many retyped seeds — a bootstrap set, not a firehose. *)
let cross_cap = 32

type worker_state = {
  wname : string;
  mutable last_seen : float;
  mutable alive : bool;
}

type t = {
  resolve : string -> (Worker.target, string) result;
  corpus_sync : bool;
  heartbeat_timeout : float;
  obs : Obs.t;
  campaigns : (int, campaign) Hashtbl.t;
  mutable order : int list;  (** campaign ids, submission order (reversed) *)
  mutable next_id : int;
  workers : (int, worker_state) Hashtbl.t;
  mutable worker_order : int list;  (** worker ids, join order (reversed) *)
  mutable next_wid : int;
  fleet : Crash.Ledger.t;  (** one entry per distinct bug across every tenant *)
  fleet_tenants : (string, string list) Hashtbl.t;
      (** dedup key -> tenants that hit it, attribution order *)
  mutable journal : Journal.t option;
  mutable replaying : bool;  (** journal replay in progress: no fencing, no re-journaling *)
  mutable reassignments : int;
  mutable fenced : int;
  mutable payloads_lost : int;
  mutable recovery_lag : float;
  mutable replayed_frames : int;
  cnt_reassigned : Obs.Counter.t;
  cnt_fenced : Obs.Counter.t;
  cnt_lost : Obs.Counter.t;
}

let campaign_exn t id =
  match Hashtbl.find_opt t.campaigns id with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Hub: unknown campaign %d" id)

let virtual_now c = Array.fold_left Float.max 0. c.shard_virtual

let message (c : campaign) text = Obs.message c.obs Obs.Level.Info text

let journal_append t msg =
  if not t.replaying then
    match t.journal with Some j -> Journal.append j msg | None -> ()

(* --- worker registry ---------------------------------------------------- *)

let worker_load t wid =
  List.fold_left
    (fun acc id ->
      let c = campaign_exn t id in
      Array.fold_left
        (fun acc l -> if l.owner = Some wid && not l.completed then acc + 1 else acc)
        acc c.leases)
    0 (List.rev t.order)

(* Least-loaded alive worker, ties to the lowest id — with equal loads
   and workers joined in index order this reproduces the historical
   [shard mod farms] placement, which keeps fault-free fleet digests
   stable across the registry refactor. *)
let pick_worker t =
  List.fold_left
    (fun best wid ->
      let w = Hashtbl.find t.workers wid in
      if not w.alive then best
      else
        let load = worker_load t wid in
        match best with Some (_, bl) when bl <= load -> best | _ -> Some (wid, load))
    None
    (List.rev t.worker_order)

let encode_corpus c = List.filter_map Protocol.encode_prog (Corpus.progs c.corpus)

(* Hand every unowned, uncompleted lease to a surviving worker. Walks
   campaigns in submission order and shards in shard order, so the
   assignment stream is deterministic. A lease past its birth epoch is a
   reassignment (or a post-restart restart): the fresh farm starts from
   the tenant seed, so the hub replays its merged corpus as a bootstrap
   pull — re-executed discovery is deduplicated on arrival, but the
   seeds themselves must not be lost with the dead worker. *)
let assign_pending t =
  List.concat_map
    (fun id ->
      let c = campaign_exn t id in
      List.concat
        (Array.to_list
           (Array.mapi
              (fun k l ->
                if l.owner <> None || l.completed then []
                else
                  match pick_worker t with
                  | None -> []
                  | Some (wid, _) ->
                    l.owner <- Some wid;
                    if l.last_owner >= 0 then begin
                      t.reassignments <- t.reassignments + 1;
                      Obs.Counter.incr t.cnt_reassigned;
                      Obs.emit c.obs
                        (Obs.Event.Shard_reassigned
                           {
                             campaign = c.id;
                             shard = k;
                             epoch = l.epoch;
                             from_worker = l.last_owner;
                             to_worker = wid;
                           })
                    end;
                    let a = { l.assign with Shard.epoch = l.epoch } in
                    let bootstrap =
                      if l.epoch > l.assign.Shard.epoch && Corpus.size c.corpus > 0
                      then
                        [ To_worker
                            ( wid,
                              Protocol.Corpus_pull
                                { campaign = c.id; shard = k; progs = encode_corpus c }
                            );
                        ]
                      else []
                    in
                    To_worker (wid, Protocol.Shard_assign a) :: bootstrap)
              c.leases)))
    (List.rev t.order)

let hello t ~now ~name =
  if not (Tenant.name_ok name) then
    Error
      (Printf.sprintf
         "invalid worker name %S (1-64 chars, [A-Za-z0-9_-])" name)
  else begin
    let wid = t.next_wid in
    t.next_wid <- wid + 1;
    Hashtbl.replace t.workers wid { wname = name; last_seen = now; alive = true };
    t.worker_order <- wid :: t.worker_order;
    Obs.emit t.obs (Obs.Event.Worker_joined { worker = wid; name });
    Ok
      ( wid,
        To_worker
          ( wid,
            Protocol.Worker_welcome
              { worker = wid; heartbeat_timeout_s = t.heartbeat_timeout } )
        :: assign_pending t )
  end

(* Declare a worker dead: revoke every active lease it holds (bumping
   the epoch first, so anything the zombie still flushes is fenced),
   notify it best-effort, and hand the shards to survivors. The work the
   dead worker had reported is discarded — shards restart from scratch
   on their new owner, which is what keeps the outcome independent of
   *when* the death was detected. *)
let worker_lost t ~now ~worker =
  ignore now;
  match Hashtbl.find_opt t.workers worker with
  | None -> []
  | Some w when not w.alive -> []
  | Some w ->
    w.alive <- false;
    let revokes = ref [] and nleases = ref 0 in
    List.iter
      (fun id ->
        let c = campaign_exn t id in
        Array.iteri
          (fun k l ->
            if l.owner = Some worker && not l.completed then begin
              incr nleases;
              t.payloads_lost <- t.payloads_lost + c.shard_exec.(k);
              Obs.Counter.add t.cnt_lost c.shard_exec.(k);
              t.recovery_lag <- Float.max t.recovery_lag c.shard_virtual.(k);
              c.shard_exec.(k) <- 0;
              c.shard_virtual.(k) <- 0.;
              l.owner <- None;
              l.last_owner <- worker;
              revokes :=
                To_worker
                  ( worker,
                    Protocol.Shard_revoke
                      { campaign = c.id; shard = k; epoch = l.epoch } )
                :: !revokes;
              l.epoch <- l.epoch + 1
            end)
          c.leases)
      (List.rev t.order);
    Obs.emit t.obs (Obs.Event.Worker_lost { worker; leases = !nleases });
    List.rev !revokes @ assign_pending t

(* Heartbeat-deadline scan plus a retry of any still-pending leases
   (shards orphaned while no survivor was available). Only workers
   holding at least one active lease are subject to the deadline: an
   idle worker has nothing the fleet is waiting on, and exempting it
   keeps the deterministic in-process driver free of spurious deaths. *)
let tick t ~now =
  let lost =
    List.filter
      (fun wid ->
        let w = Hashtbl.find t.workers wid in
        w.alive
        && now -. w.last_seen > t.heartbeat_timeout
        && worker_load t wid > 0)
      (List.rev t.worker_order)
  in
  List.concat_map (fun wid -> worker_lost t ~now ~worker:wid) lost
  @ assign_pending t

let worker_rows t =
  List.rev_map
    (fun wid ->
      let w = Hashtbl.find t.workers wid in
      {
        Protocol.worker = wid;
        name = w.wname;
        alive = w.alive;
        leases = worker_load t wid;
      })
    t.worker_order

(* --- campaign lifecycle ------------------------------------------------- *)

let submit t ~client (config : Tenant.config) =
  match Tenant.validate config with
  | Error reason -> [ To_client (client, Protocol.Reject { tenant = config.Tenant.tenant; reason }) ]
  | Ok () ->
    if
      Hashtbl.fold
        (fun _ c acc -> acc || c.config.Tenant.tenant = config.Tenant.tenant)
        t.campaigns false
    then
      [ To_client
          ( client,
            Protocol.Reject
              {
                tenant = config.Tenant.tenant;
                reason = "tenant already has a campaign";
              } );
      ]
    else (
      match t.resolve config.Tenant.os with
      | Error reason ->
        [ To_client (client, Protocol.Reject { tenant = config.Tenant.tenant; reason }) ]
      | Ok target ->
        let id = t.next_id in
        t.next_id <- id + 1;
        let seed_rng = Eof_util.Rng.create config.Tenant.seed in
        let leases =
          Array.of_list
            (List.map
               (fun a ->
                 {
                   assign = a;
                   epoch = a.Shard.epoch;
                   owner = None;
                   completed = false;
                   last_owner = -1;
                 })
               (Shard.plan ~campaign:id config))
        in
        let c =
          {
            id;
            config;
            client;
            target;
            corpus = Corpus.create ~rng:seed_rng ();
            bitmap = None;
            leases;
            shard_exec = Array.make config.Tenant.farms 0;
            shard_virtual = Array.make config.Tenant.farms 0.;
            shards_done = 0;
            iterations_done = 0;
            crash_events = 0;
            crashes = Crash.Ledger.create ();
            syncs = 0;
            cross_in = 0;
            digest = None;
            obs = Obs.for_tenant t.obs config.Tenant.tenant;
          }
        in
        Obs.set_clock c.obs (fun () -> virtual_now c);
        Hashtbl.replace t.campaigns id c;
        t.order <- id :: t.order;
        journal_append t (Protocol.Submit config);
        message c
          (Printf.sprintf "campaign %d accepted: %s" id (Tenant.to_string config));
        To_client (client, Protocol.Accept { campaign = id; tenant = config.Tenant.tenant })
        :: assign_pending t)

(* Wind a campaign back to the moment of acceptance: fresh corpus from
   the tenant seed, empty coverage and crash state, every lease
   unowned at a bumped epoch. Used when a journal replay finds the
   campaign unfinished — the deterministic re-run of the whole campaign
   reaches the same digest the uninterrupted run would have, because
   hub-side accounting (corpus hash dedup, bitmap union, absolute executed
   counters, crash dedup keys) is idempotent under re-delivery. The
   fleet-wide crash set is deliberately *not* wound back: re-reported
   crashes dedup into it. *)
let reset_campaign t c =
  if not t.replaying then begin
    let lost = Array.fold_left ( + ) 0 c.shard_exec in
    t.payloads_lost <- t.payloads_lost + lost;
    Obs.Counter.add t.cnt_lost lost;
    t.recovery_lag <-
      Array.fold_left Float.max t.recovery_lag c.shard_virtual
  end;
  c.corpus <- Corpus.create ~rng:(Eof_util.Rng.create c.config.Tenant.seed) ();
  c.bitmap <- None;
  Array.fill c.shard_exec 0 (Array.length c.shard_exec) 0;
  Array.fill c.shard_virtual 0 (Array.length c.shard_virtual) 0.;
  c.shards_done <- 0;
  c.iterations_done <- 0;
  c.crash_events <- 0;
  Crash.Ledger.clear c.crashes;
  c.syncs <- 0;
  c.cross_in <- 0;
  c.digest <- None;
  Array.iter
    (fun l ->
      l.epoch <- l.epoch + 1;
      l.owner <- None;
      l.completed <- false;
      l.last_owner <- -1)
    c.leases

(* One pushed program: admit into the hub's merged corpus (decoding
   through the campaign's own spec/table, so a malformed or
   wrong-personality program is rejected at the hub boundary), and if
   it is genuinely new, transplant it to every sibling shard — then
   retype it against every other running personality and relay the
   survivors to their shards too (cross-personality transplantation). *)
let corpus_push t c ~shard progs =
  let fresh =
    List.filter_map
      (fun p ->
        match
          Protocol.decode_prog ~spec:c.target.Worker.spec
            ~table:c.target.Worker.table p
        with
        | None -> None
        | Some prog ->
          let admitted = Corpus.add c.corpus ~prog ~new_edges:1 ~crashed:false in
          if admitted then begin
            Obs.emit c.obs
              (Obs.Event.Corpus_admit { new_edges = 1; size = Corpus.size c.corpus });
            Some (p, prog)
          end
          else None)
      progs
  in
  (* A pull is only routed to a shard whose lease has a live owner; a
     pending (dead-owner) shard catches up through the bootstrap pull
     replayed at reassignment — the hub corpus already holds these
     programs. *)
  let route (d : campaign) k progs =
    match d.leases.(k).owner with
    | Some w when not d.leases.(k).completed ->
      Some
        (To_worker (w, Protocol.Corpus_pull { campaign = d.id; shard = k; progs }))
    | _ -> None
  in
  if fresh = [] || not t.corpus_sync then []
  else begin
    let wires = List.map fst fresh in
    let same_personality =
      List.filter_map
        (fun k -> if k = shard then None else route c k wires)
        (List.init c.config.Tenant.farms Fun.id)
    in
    (* Cross-personality: retype each fresh program against every other
       running campaign's API surface. Only validate-clean survivors are
       admitted (into that campaign's hub corpus, deduped by content
       hash) and relayed to all of its shards — there is no originating
       shard to exclude over there. Campaigns are visited in submission
       order, so relaying is deterministic. *)
    let cross_personality =
      List.concat_map
        (fun id ->
          let d = campaign_exn t id in
          if
            d.id = c.id || d.digest <> None
            || String.equal d.config.Tenant.os c.config.Tenant.os
            || d.cross_in >= cross_cap
          then []
          else begin
            let retyped =
              List.filter_map
                (fun (_, prog) ->
                  if d.cross_in >= cross_cap then None
                  else
                  match
                    Transplant.retype ~dst_spec:d.target.Worker.spec
                      ~dst_table:d.target.Worker.table prog
                  with
                  | None -> None
                  | Some o ->
                    (match Protocol.encode_prog o.Transplant.prog with
                     | None -> None
                     | Some w ->
                       if
                         Corpus.add d.corpus ~prog:o.Transplant.prog
                           ~new_edges:1 ~crashed:false
                       then begin
                         d.cross_in <- d.cross_in + 1;
                         Obs.emit d.obs
                           (Obs.Event.Transplant_retyped
                              {
                                from_os = c.config.Tenant.os;
                                to_os = d.config.Tenant.os;
                                kept = o.Transplant.kept;
                                dropped = o.Transplant.dropped;
                              });
                         Some w
                       end
                       else None))
                fresh
            in
            if retyped = [] then []
            else
              List.filter_map
                (fun k -> route d k retyped)
                (List.init d.config.Tenant.farms Fun.id)
          end)
        (List.rev t.order)
    in
    same_personality @ cross_personality
  end

let crash_report t c crash =
  (* Fleet-wide set: one entry per distinct bug across every tenant and
     farm; per-tenant attribution rides next to it. *)
  ignore (Crash.Ledger.add t.fleet crash : bool);
  let key = Crash.dedup_key crash and tenant = c.config.Tenant.tenant in
  let tenants = Option.value ~default:[] (Hashtbl.find_opt t.fleet_tenants key) in
  if not (List.mem tenant tenants) then
    Hashtbl.replace t.fleet_tenants key (tenants @ [ tenant ]);
  (* Tenant-local set: same bug from two farms of one campaign is still
     one crash in the tenant's report. *)
  if Crash.Ledger.add c.crashes crash then
    Obs.emit c.obs
      (Obs.Event.Crash_found
         { kind = Crash.kind_name crash.Crash.kind; operation = crash.Crash.operation })

let heartbeat c ~shard ~executed ~edge_capacity ~virtual_s ~bitmap =
  c.shard_exec.(shard) <- executed;
  c.shard_virtual.(shard) <- Float.max c.shard_virtual.(shard) virtual_s;
  let dst =
    match c.bitmap with
    | Some b -> b
    | None ->
      let b = Bitset.create edge_capacity in
      c.bitmap <- Some b;
      b
  in
  ignore (Bitset.union_into ~dst ~src:(Bitset.of_bytes ~capacity:edge_capacity bitmap));
  c.syncs <- c.syncs + 1;
  Obs.emit c.obs
    (Obs.Event.Epoch_sync
       {
         sync = c.syncs;
         executed = Array.fold_left ( + ) 0 c.shard_exec;
         coverage = Bitset.count dst;
       })

let campaign_coverage c = match c.bitmap with Some b -> Bitset.count b | None -> 0

let tenant_digest c =
  Report.digest_line
    ~label:(Printf.sprintf "tenant %s" c.config.Tenant.tenant)
    ~coverage:(campaign_coverage c)
    ~bitmap:
      (match c.bitmap with Some b -> b | None -> Bitset.create 8)
    ~corpus:(Corpus.progs c.corpus)
    ~crashes:(Crash.Ledger.to_list c.crashes)
    ~crash_events:c.crash_events
    ~executed:(Array.fold_left ( + ) 0 c.shard_exec)
    ~iterations_done:c.iterations_done

let shard_done c ~shard ~executed ~iterations ~crash_events ~virtual_s =
  c.shard_exec.(shard) <- executed;
  c.shard_virtual.(shard) <- Float.max c.shard_virtual.(shard) virtual_s;
  c.iterations_done <- c.iterations_done + iterations;
  c.crash_events <- c.crash_events + crash_events;
  c.shards_done <- c.shards_done + 1;
  if c.shards_done = c.config.Tenant.farms then begin
    let digest = tenant_digest c in
    c.digest <- Some digest;
    message c (Printf.sprintf "campaign %d done: %s" c.id digest);
    [ To_client
        ( c.client,
          Protocol.Campaign_done
            { campaign = c.id; tenant = c.config.Tenant.tenant; digest } );
    ]
  end
  else []

let status t =
  List.rev_map
    (fun id ->
      let c = campaign_exn t id in
      {
        Protocol.campaign = id;
        tenant = c.config.Tenant.tenant;
        os = c.config.Tenant.os;
        finished = c.digest <> None;
        shards = c.config.Tenant.farms;
        shards_done = c.shards_done;
        executed = Array.fold_left ( + ) 0 c.shard_exec;
        coverage = campaign_coverage c;
        crashes = Crash.Ledger.distinct c.crashes;
      })
    t.order

let cancel t id =
  match Hashtbl.find_opt t.campaigns id with
  | None -> []
  | Some c ->
    if c.digest <> None then []
    else
      List.filter_map
        (fun l ->
          match l.owner with
          | Some w when not l.completed ->
            Some (To_worker (w, Protocol.Cancel { campaign = id }))
          | _ -> None)
        (Array.to_list c.leases)

let handle_client t ~client msg =
  match msg with
  | Protocol.Submit config -> submit t ~client config
  | Protocol.Status_req ->
    [ To_client
        (client, Protocol.Status { rows = status t; workers = worker_rows t });
    ]
  | Protocol.Cancel { campaign } -> cancel t campaign
  | other ->
    [ To_client
        ( client,
          Protocol.Reject
            {
              tenant = "";
              reason =
                Printf.sprintf "unexpected client message %s" (Protocol.kind_name other);
            } );
    ]

(* The fence: traffic for a shard is only admitted when it names the
   current lease epoch and comes from the current owner. Everything
   else — a zombie flushing after its deadline fired, a frame for a
   campaign the hub never heard of (restarted hub, stale worker) — is
   dropped and counted, never raised on: remote workers are processes
   outside this one's fate-sharing domain. *)
let fence t ~worker ~campaign ~shard ~epoch ~kind =
  match Hashtbl.find_opt t.campaigns campaign with
  | Some c
    when shard >= 0
         && shard < Array.length c.leases
         && c.leases.(shard).epoch = epoch
         && c.leases.(shard).owner = Some worker ->
    Some c
  | maybe ->
    t.fenced <- t.fenced + 1;
    Obs.Counter.incr t.cnt_fenced;
    let bus = match maybe with Some c -> c.obs | None -> t.obs in
    Obs.emit bus (Obs.Event.Lease_fenced { campaign; shard; epoch; kind });
    None

(* The one place a farm frame changes campaign state. Live traffic
   reaches it after the fence, journal replay directly. [None] marks a
   no-op — a [Shard_done] for a lease already completed — which the live
   path does not journal. *)
let apply t c ~shard msg =
  match msg with
  | Protocol.Corpus_push { progs; _ } -> Some (corpus_push t c ~shard progs)
  | Protocol.Crash_report { crash; _ } ->
    crash_report t c crash;
    Some []
  | Protocol.Heartbeat { executed; edge_capacity; virtual_s; bitmap; _ } ->
    heartbeat c ~shard ~executed ~edge_capacity ~virtual_s ~bitmap;
    Some []
  | Protocol.Shard_done { executed; iterations; crash_events; virtual_s; _ } ->
    let l = c.leases.(shard) in
    if l.completed then None
    else begin
      l.completed <- true;
      l.owner <- None;
      Some (shard_done c ~shard ~executed ~iterations ~crash_events ~virtual_s)
    end
  | _ -> None

let handle_worker t ~now ~worker msg =
  let alive =
    match Hashtbl.find_opt t.workers worker with
    | Some w when w.alive ->
      w.last_seen <- now;
      true
    | _ -> false
  in
  let ack = [ To_worker (worker, Protocol.Heartbeat_ack { worker }) ] in
  match (msg, Protocol.farm_header msg) with
  | Protocol.Worker_ping _, _ -> if alive then ack else []
  | _, Some (campaign, shard, epoch) -> (
    match fence t ~worker ~campaign ~shard ~epoch ~kind:(Protocol.kind_name msg) with
    | None -> []
    | Some c -> (
      match apply t c ~shard msg with
      | None -> []
      | Some out ->
        journal_append t msg;
        (match msg with Protocol.Heartbeat _ -> ack | _ -> out)))
  | other, None ->
    Obs.message t.obs Obs.Level.Warn
      (Printf.sprintf "hub: dropping unexpected worker message %s"
         (Protocol.kind_name other));
    []

(* --- journal replay ----------------------------------------------------- *)

(* Re-apply one journaled frame. No fencing (the frame was fenced when
   it was first accepted) and no owners exist yet; the lease epoch is
   tracked as a high-water mark so post-replay epochs always exceed
   anything a pre-restart zombie could still name. *)
let replay_frame t msg =
  match (msg, Protocol.farm_header msg) with
  | Protocol.Submit config, _ -> ignore (submit t ~client:0 config : action list)
  | Protocol.Accept { campaign; _ }, _ ->
    (* the restart marker: this campaign was reset by a previous
       replay — wind it back exactly as the live hub did *)
    Option.iter (reset_campaign t) (Hashtbl.find_opt t.campaigns campaign)
  | _, Some (campaign, shard, epoch) -> (
    match Hashtbl.find_opt t.campaigns campaign with
    | Some c when shard >= 0 && shard < Array.length c.leases ->
      let l = c.leases.(shard) in
      l.epoch <- max l.epoch epoch;
      ignore (apply t c ~shard msg : action list option)
    | _ -> ())
  | _, None -> ()

(* Replay an existing journal, then keep appending to it. Campaigns the
   replay left unfinished cannot be resumed mid-shard — the workers'
   in-memory farm state died with the old process. Reset them for a
   deterministic re-run, and append the restart marker so a *second*
   replay winds them back at the same point in the frame stream. *)
let resume t path =
  let ( let* ) = Result.bind in
  let* frames = if Sys.file_exists path then Journal.replay path else Ok [] in
  let* j = Journal.open_ path in
  t.replaying <- true;
  List.iter (replay_frame t) frames;
  t.replaying <- false;
  t.replayed_frames <- List.length frames;
  t.journal <- Some j;
  let reset =
    List.fold_left
      (fun n id ->
        let c = campaign_exn t id in
        if c.digest = None then begin
          reset_campaign t c;
          journal_append t
            (Protocol.Accept { campaign = c.id; tenant = c.config.Tenant.tenant });
          n + 1
        end
        else n)
      0 (List.rev t.order)
  in
  if t.replayed_frames > 0 then
    Obs.emit t.obs
      (Obs.Event.Journal_replay
         { frames = t.replayed_frames; campaigns = List.length t.order; reset });
  Ok ()

let create ?obs ?(corpus_sync = true) ?journal ?(heartbeat_timeout = 30.) ~resolve ()
    =
  if heartbeat_timeout <= 0. then Error "Hub.create: heartbeat_timeout must be positive"
  else begin
    let obs = match obs with Some o -> o | None -> Obs.create () in
    let t =
      {
        resolve;
        corpus_sync;
        heartbeat_timeout;
        obs;
        campaigns = Hashtbl.create 8;
        order = [];
        next_id = 1;
        workers = Hashtbl.create 8;
        worker_order = [];
        next_wid = 0;
        fleet = Crash.Ledger.create ();
        fleet_tenants = Hashtbl.create 16;
        journal = None;
        replaying = false;
        reassignments = 0;
        fenced = 0;
        payloads_lost = 0;
        recovery_lag = 0.;
        replayed_frames = 0;
        cnt_reassigned = Obs.Counter.make obs "hub.reassignments";
        cnt_fenced = Obs.Counter.make obs "hub.fenced";
        cnt_lost = Obs.Counter.make obs "hub.payloads-lost";
      }
    in
    match journal with
    | None -> Ok t
    | Some path ->
      Result.map_error
        (Printf.sprintf "Hub.create: journal %s: %s" path)
        (Result.map (fun () -> t) (resume t path))
  end

let close t =
  (match t.journal with Some j -> Journal.close j | None -> ());
  t.journal <- None

(* --- read-side ---------------------------------------------------------- *)

let all_done t =
  t.order <> []
  && List.for_all (fun id -> (campaign_exn t id).digest <> None) t.order

let tenants t =
  List.rev_map (fun id -> (campaign_exn t id).config.Tenant.tenant) t.order

let tenant_digests t =
  List.rev
    (List.filter_map
       (fun id ->
         let c = campaign_exn t id in
         Option.map (fun d -> (c.config.Tenant.tenant, d)) c.digest)
       t.order)

let fleet_digest t = Report.fleet_digest (tenant_digests t)

let crashes_deduped t = Crash.Ledger.distinct t.fleet

let fleet_crashes t =
  List.map
    (fun crash -> (crash, Hashtbl.find t.fleet_tenants (Crash.dedup_key crash)))
    (Crash.Ledger.to_list t.fleet)

let heartbeat_timeout t = t.heartbeat_timeout

let reassignments t = t.reassignments

let fenced t = t.fenced

let payloads_lost t = t.payloads_lost

let recovery_lag t = t.recovery_lag

let replayed_frames t = t.replayed_frames
