module Obs = Eof_obs.Obs
module Bitset = Eof_util.Bitset
module Farm = Eof_core.Farm
module Corpus = Eof_core.Corpus
module Osbuild = Eof_os.Osbuild

type target = {
  mk_build : int -> Osbuild.t;
  spec : Eof_spec.Ast.t;
  table : Eof_rtos.Api.table;
}

type shard_state = {
  assign : Shard.assignment;
  target : target;
  farm : Farm.t;
  mutable cursor : int;
      (** exchange-corpus admission number up to which the hub has every
          program: sent by a flush, or received by a pull *)
  mutable crashes_seen : int;
  mutable transplanted : int;
  mutable finished : bool;
}

type t = {
  name : string;
  mutable id : int;  (** hub-assigned at welcome; -1 until then *)
  mutable heartbeat_timeout_s : float option;  (** as negotiated at welcome *)
  resolve : string -> (target, string) result;
  obs : Obs.t;
  mutable shards : shard_state list;  (** assignment order *)
}

let create ?obs ~name ~resolve () =
  {
    name;
    id = -1;
    heartbeat_timeout_s = None;
    resolve;
    obs = (match obs with Some o -> o | None -> Obs.create ());
    shards = [];
  }

let id t = t.id

let name t = t.name

let heartbeat_timeout_s t = t.heartbeat_timeout_s

let hello t = Protocol.Worker_hello { name = t.name }

let assign t (a : Shard.assignment) =
  let os = a.Shard.config.Tenant.os in
  match t.resolve os with
  | Error e -> Error (Printf.sprintf "worker %d: cannot resolve os %s: %s" t.id os e)
  | Ok target ->
  match
    Farm.init
      ~obs:(Obs.for_tenant t.obs a.Shard.config.Tenant.tenant)
      (Shard.farm_config a) target.mk_build
  with
  | Error e ->
    Error
      (Printf.sprintf "worker %d: farm init failed: %s" t.id (Eof_util.Eof_error.to_string e))
  | Ok farm ->
  (* A re-lease of a shard this worker held at a lower epoch replaces
     the dead entry — the fresh farm restarts the shard from scratch. *)
  t.shards <-
    List.filter
      (fun st ->
        st.assign.Shard.campaign <> a.Shard.campaign
        || st.assign.Shard.shard <> a.Shard.shard)
      t.shards
    @ [ {
          assign = a;
          target;
          farm;
          cursor = 0;
          crashes_seen = 0;
          transplanted = 0;
          finished = false;
        };
      ];
  Ok []

(* Everything new since the last farm epoch, in a fixed order: corpus
   programs, then crashes, then the heartbeat that timestamps them. The
   exchange corpus admits seeds only at a farm epoch, and every step
   that ran one flushes, so the seeds admitted since the cursor are
   exactly the ones the hub has not seen from this shard. *)
let flush st =
  let a = st.assign in
  let campaign = a.Shard.campaign
  and shard = a.Shard.shard
  and epoch = a.Shard.epoch in
  let xc = Farm.exchange_corpus st.farm in
  let fresh_progs = List.filter_map Protocol.encode_prog (Corpus.since xc st.cursor) in
  st.cursor <- Corpus.total_added xc;
  let pushes =
    if fresh_progs = [] then []
    else [ Protocol.Corpus_push { campaign; shard; epoch; progs = fresh_progs } ]
  in
  let crashes = Farm.crashes_so_far st.farm in
  let reports =
    List.filteri (fun i _ -> i >= st.crashes_seen) crashes
    |> List.map (fun crash -> Protocol.Crash_report { campaign; shard; epoch; crash })
  in
  st.crashes_seen <- List.length crashes;
  let bitmap = Farm.coverage_bitmap st.farm in
  let heartbeat =
    Protocol.Heartbeat
      {
        campaign;
        shard;
        epoch;
        executed = Farm.executed_so_far st.farm;
        coverage = Bitset.count bitmap;
        edge_capacity = Bitset.capacity bitmap;
        virtual_s = Farm.virtual_now st.farm;
        bitmap = Bitset.to_bytes bitmap;
      }
  in
  pushes @ reports @ [ heartbeat ]

let shard_done st =
  let a = st.assign in
  let outcome = Farm.finish st.farm in
  st.finished <- true;
  flush st
  @ [ Protocol.Shard_done
        {
          campaign = a.Shard.campaign;
          shard = a.Shard.shard;
          epoch = a.Shard.epoch;
          executed = outcome.Farm.executed_programs;
          iterations = outcome.Farm.iterations_done;
          crash_events = outcome.Farm.crash_events;
          virtual_s = outcome.Farm.virtual_s;
        };
    ]

(* Every hub message but an assignment: none of them can fail. *)
let react t msg =
  match msg with
  | Protocol.Worker_welcome { worker; heartbeat_timeout_s } ->
    t.id <- worker;
    t.heartbeat_timeout_s <- Some heartbeat_timeout_s;
    []
  | Protocol.Heartbeat_ack _ -> []
  | Protocol.Shard_revoke { campaign; shard; epoch } ->
    (* The lease is gone: freeze the farm (one off-cycle merge so its
       observers settle, nothing sent — the hub has already fenced this
       epoch) and never step it again. *)
    List.iter
      (fun st ->
        if
          st.assign.Shard.campaign = campaign
          && st.assign.Shard.shard = shard
          && st.assign.Shard.epoch = epoch
          && not st.finished
        then begin
          Farm.pause st.farm;
          st.finished <- true
        end)
      t.shards;
    []
  | Protocol.Corpus_pull { campaign; shard; progs } ->
    (match
       List.find_opt
         (fun st ->
           st.assign.Shard.campaign = campaign && st.assign.Shard.shard = shard)
         t.shards
     with
    | None -> []
    | Some st ->
      if st.finished then []
      else begin
        let typed =
          List.filter_map
            (Protocol.decode_prog ~spec:st.target.spec ~table:st.target.table)
            progs
        in
        st.transplanted <- st.transplanted + Farm.adopt st.farm typed;
        (* The hub sent these: never push a transplant straight back. *)
        st.cursor <- Corpus.total_added (Farm.exchange_corpus st.farm);
        []
      end)
  | Protocol.Cancel { campaign } ->
    List.concat_map
      (fun st ->
        if st.finished || st.assign.Shard.campaign <> campaign then []
        else shard_done st)
      t.shards
  | other ->
    Obs.message t.obs Obs.Level.Warn
      (Printf.sprintf "worker %d: dropping unexpected message %s" t.id
         (Protocol.kind_name other));
    []

let handle t msg =
  match msg with Protocol.Shard_assign a -> assign t a | msg -> Ok (react t msg)

(* The unfinished shard whose next board is earliest on its own clock
   (ties to the first shard) — the same min-CPU pick the farm applies
   one level down. *)
let earliest t =
  List.fold_left
    (fun acc st ->
      if st.finished then acc
      else
        match (Farm.next_cpu_s st.farm, acc) with
        | None, _ -> acc
        | Some v, Some (_, bv) when bv <= v -> acc
        | Some v, _ -> Some (st, v))
    None t.shards

let next_cpu_s t = Option.map snd (earliest t)

let step t =
  match earliest t with
  | None -> []
  | Some (st, _) ->
    let syncs_before = Farm.syncs_so_far st.farm in
    Farm.step st.farm;
    if Farm.finished st.farm then shard_done st
    else if Farm.syncs_so_far st.farm <> syncs_before then flush st
    else []

let transplanted t =
  List.fold_left (fun acc st -> acc + st.transplanted) 0 t.shards
