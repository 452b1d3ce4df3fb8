module Obs = Eof_obs.Obs
module Crash = Eof_core.Crash

type tenant_result = {
  tenant : string;
  campaign : int;
  digest : string;
  executed : int;
  coverage : int;
  crashes : int;
}

type outcome = {
  tenants : tenant_result list;
  fleet_digest : string;
  crashes_deduped : int;
  fleet_crashes : (Crash.t * string list) list;
  transplants : int;
  payloads : int;
  wall_s : float;
  halted : bool;
  reassignments : int;
  fenced : int;
  payloads_lost : int;
  recovery_lag : float;
  replayed_frames : int;
}

(* Every message round-trips through the frame codec even though both
   endpoints share an address space: the deterministic soak then
   exercises exactly the bytes the socket transport would carry. *)
let codec msg =
  match Protocol.decode (Protocol.encode msg) with
  | Ok m -> m
  | Error e ->
    invalid_arg
      (Printf.sprintf "inproc codec round-trip failed on %s: %s"
         (Protocol.kind_name msg) (Protocol.error_to_string e))

let run ?obs ?corpus_sync ?journal ?heartbeat_timeout ?kill ?halt_after ~farms
    (tenants : Tenant.config list)
    ~(resolve : string -> (Worker.target, string) result) =
  if tenants = [] then Error "inproc: no tenants submitted"
  else if farms < 1 then Error "inproc: farms must be >= 1"
  else if Option.fold ~none:false ~some:(fun (w, _) -> w < 0 || w >= farms) kill then
    (* A drill naming no worker would never fire, and the run would pass
       for one that survived it. *)
    Error
      (Printf.sprintf "inproc: cannot kill worker %d: the fleet has %d farm(s), workers 0..%d"
         (fst (Option.get kill)) farms (farms - 1))
  else begin
    let t0 = Unix.gettimeofday () in
    let obs = match obs with Some o -> o | None -> Obs.create () in
    match Hub.create ~obs ?corpus_sync ?journal ?heartbeat_timeout ~resolve () with
    | Error msg -> Error msg
    | Ok hub ->
    let timeout = Hub.heartbeat_timeout hub in
    let workers =
      Array.init farms (fun i ->
          Worker.create ~obs ~name:(Printf.sprintf "w%d" i) ~resolve ())
    in
    let alive = Array.make farms true in
    let worker_q = Array.init farms (fun _ -> Queue.create ()) in
    (* Scripted silent death: worker [ki] stops responding after its
       [kn]-th step — no EOF, nothing; only the heartbeat deadline on
       the fleet's virtual clock can notice, which is exactly the
       recovery path under test. *)
    let kill_worker, kill_after =
      match kill with Some (w, n) -> (w, n) | None -> (-1, -1)
    in
    let steps = Array.make farms 0 in
    (* The fleet clock: high-water mark of the scheduling key. Only ever
       advanced — a freshly reassigned shard restarts its own clock at
       zero without winding the fleet back. *)
    let vnow = ref 0. in
    let rejects = ref [] in
    (* The first message a worker could not act on ends the run. *)
    let failure = ref None in
    (* Worker ids are assigned by the hub in hello order, so with the
       hellos below wid = array index — but route through the map
       anyway rather than assume it. *)
    let idx_of_wid = Hashtbl.create 8 in
    let rec dispatch actions =
      List.iter
        (function
          | Hub.To_worker (wid, msg) -> (
            match Hashtbl.find_opt idx_of_wid wid with
            | Some i when alive.(i) -> Queue.add (codec msg) worker_q.(i)
            | _ -> () (* a dead worker's socket is closed: best-effort drop *))
          | Hub.To_client (_, Protocol.Reject { tenant; reason }) ->
            rejects := Printf.sprintf "%s: %s" tenant reason :: !rejects
          | Hub.To_client (_, _) -> ())
        actions
    (* Drain all pending hub → worker traffic, feeding worker replies
       back into the hub, until the fleet is quiescent. Workers are
       visited in id order and queues are FIFO, so the drain order is a
       pure function of the message history — no clocks, no races. *)
    and feed i replies =
      List.iter
        (fun r ->
          dispatch
            (Hub.handle_worker hub ~now:!vnow ~worker:(Worker.id workers.(i))
               (codec r)))
        replies
    and drain () =
      let progressed = ref false in
      Array.iteri
        (fun i q ->
          while alive.(i) && !failure = None && not (Queue.is_empty q) do
            progressed := true;
            match Worker.handle workers.(i) (Queue.take q) with
            | Ok replies -> feed i replies
            | Error e -> failure := Some e
          done)
        worker_q;
      if !progressed then drain ()
    in
    Array.iteri
      (fun i w ->
        match Hub.hello hub ~now:0. ~name:(Worker.name w) with
        | Error e -> invalid_arg (Printf.sprintf "inproc: %s" e)
        | Ok (wid, actions) ->
          Hashtbl.replace idx_of_wid wid i;
          dispatch actions)
      workers;
    (* A journal-resumed hub already knows some tenants (finished ones
       keep their digests; unfinished ones were reset and re-lease at
       the hellos above) — only submit the genuinely new ones. *)
    let known = Hub.tenants hub in
    List.iteri
      (fun client config ->
        if not (List.mem config.Tenant.tenant known) then
          dispatch (Hub.handle_client hub ~client (Protocol.Submit config)))
      tenants;
    drain ();
    match (!rejects, !failure) with
    | r :: _, _ -> Error r
    | [], Some e -> Error e
    | [], None ->
      let total_steps = ref 0 in
      let halted = ref false and stalled = ref false in
      while (not (Hub.all_done hub)) && (not !stalled) && (not !halted) && !failure = None do
        (* Cooperative fleet schedule: the worker whose earliest board
           is earliest on its virtual clock runs one payload; ties go to
           the lowest worker id. The same min-CPU rule the farm applies
           to boards and the worker applies to shards, one level up. *)
        let best = ref None in
        Array.iteri
          (fun i w ->
            if alive.(i) then
              match Worker.next_cpu_s w with
              | None -> ()
              | Some v ->
                (match !best with
                | Some (_, bv) when bv <= v -> ()
                | _ -> best := Some (i, v)))
          workers;
        match !best with
        | Some (i, v) ->
          vnow := Float.max !vnow v;
          (* Deadline scan first: a lease whose owner went silent longer
             than the timeout ago is revoked and reassigned before any
             more of the fleet's time passes. *)
          dispatch (Hub.tick hub ~now:!vnow);
          drain ();
          feed i (Worker.step workers.(i));
          (* Liveness is refreshed every step, not only at epoch
             flushes: a worker legitimately grinding through a long
             quiet stretch must not look dead. *)
          feed i [ Protocol.Worker_ping { worker = Worker.id workers.(i) } ];
          drain ();
          steps.(i) <- steps.(i) + 1;
          incr total_steps;
          if i = kill_worker && steps.(i) = kill_after then alive.(i) <- false;
          (match halt_after with
          | Some n when !total_steps >= n -> halted := true
          | _ -> ())
        | None ->
          (* Every live worker is idle but the hub still waits — the
             missing shards sit on a dead worker whose deadline has not
             yet fired. Let the fleet idle up to the deadline: advance
             the virtual clock past it and scan. Deterministic — the
             jump size depends only on the timeout. A socket worker
             pings through such a wait, so live workers ping here too:
             otherwise the jump ages survivors past the same deadline
             and the scan would bury the whole fleet. *)
          vnow := !vnow +. timeout +. 1.;
          Array.iteri
            (fun i w ->
              if alive.(i) then
                feed i [ Protocol.Worker_ping { worker = Worker.id w } ])
            workers;
          dispatch (Hub.tick hub ~now:!vnow);
          drain ();
          let runnable =
            Array.exists2
              (fun a w -> a && Worker.next_cpu_s w <> None)
              alive workers
          in
          if not runnable then stalled := true
      done;
      Hub.close hub;
      match !failure with
      | Some e -> Error e
      | None ->
      if !stalled then Error "inproc: fleet stalled before completion"
      else begin
        let digests = Hub.tenant_digests hub in
        let status = Hub.status hub in
        let tenants =
          List.filter_map
            (fun (r : Protocol.status_row) ->
              List.assoc_opt r.Protocol.tenant digests
              |> Option.map (fun digest ->
                     {
                       tenant = r.Protocol.tenant;
                       campaign = r.Protocol.campaign;
                       digest;
                       executed = r.Protocol.executed;
                       coverage = r.Protocol.coverage;
                       crashes = r.Protocol.crashes;
                     }))
            status
        in
        Ok
          {
            tenants;
            fleet_digest = Hub.fleet_digest hub;
            crashes_deduped = Hub.crashes_deduped hub;
            fleet_crashes = Hub.fleet_crashes hub;
            transplants =
              Array.fold_left (fun acc w -> acc + Worker.transplanted w) 0 workers;
            payloads =
              List.fold_left
                (fun acc (r : Protocol.status_row) -> acc + r.Protocol.executed)
                0 status;
            wall_s = Unix.gettimeofday () -. t0;
            halted = !halted;
            reassignments = Hub.reassignments hub;
            fenced = Hub.fenced hub;
            payloads_lost = Hub.payloads_lost hub;
            recovery_lag = Hub.recovery_lag hub;
            replayed_frames = Hub.replayed_frames hub;
          }
      end
  end

let summary o =
  let b = Buffer.create 256 in
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%s\n  executed=%d coverage=%d crashes=%d\n" r.digest
           r.executed r.coverage r.crashes))
    o.tenants;
  Buffer.add_string b
    (Printf.sprintf "%s\n" o.fleet_digest);
  Buffer.add_string b
    (Printf.sprintf "fleet: payloads=%d crashes-deduped=%d transplants=%d\n"
       o.payloads o.crashes_deduped o.transplants);
  Buffer.contents b
