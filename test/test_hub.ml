module Protocol = Eof_hub.Protocol
module Tenant = Eof_hub.Tenant
module Shard = Eof_hub.Shard
module Hub = Eof_hub.Hub
module Worker = Eof_hub.Worker
module Inproc = Eof_hub.Inproc
module Crash = Eof_core.Crash
module Targets = Eof_expt.Targets
module Crc32 = Eof_util.Crc32
module Rng = Eof_util.Rng

let resolve os =
  match Targets.find os with
  | None -> Error (Printf.sprintf "unknown OS %s" os)
  | Some target ->
    let build = Targets.build_hw target in
    let table = Eof_os.Osbuild.api_signatures build in
    (match Eof_spec.Synth.validated_of_api table with
    | Error e -> Error e
    | Ok spec ->
      Ok { Worker.mk_build = (fun _ -> Targets.build_hw target); spec; table })

let sample_crash ?(operation = "k_sem_take") ?(os = "Zephyr") () =
  {
    Crash.os;
    kind = Crash.Kernel_panic;
    operation;
    scope = "kernel/sync";
    message = "boom at 0xdeadbeef";
    backtrace = [ "k_sem_take"; "z_impl_k_sem_take"; "arch_irq_unlock" ];
    detected_by = Crash.Log_monitor;
    program = "0: k_sem_take(r0, 100)";
    iteration = 42;
  }

let sample_tenant =
  {
    Tenant.default with
    Tenant.tenant = "alice";
    os = "Zephyr";
    seed = 7L;
    iterations = 40;
    farms = 2;
  }

(* --- codec: every message kind round-trips ------------------------------ *)

let every_kind =
  [
    Protocol.Submit sample_tenant;
    Protocol.Accept { campaign = 3; tenant = "alice" };
    Protocol.Reject { tenant = "bob"; reason = "tenant already has a campaign" };
    (* every non-default code: native backend, fresh-per-program reset,
       energy schedule *)
    Protocol.Shard_assign
      {
        Shard.campaign = 3;
        shard = 1;
        epoch = 4;
        config =
          {
            sample_tenant with
            Tenant.seed = 0x1234_5678_9ABC_DEF0L;
            iterations = 21;
            boards = 2;
            sync_every = 25;
            backend = Eof_agent.Machine.Native;
            reset_policy = Eof_core.Campaign.Fresh_per_program;
            schedule = Eof_core.Corpus.Energy;
          };
      };
    Protocol.Corpus_push
      { campaign = 3; shard = 0; epoch = 1; progs = [ "\x00\x01\xffwire"; "" ] };
    Protocol.Corpus_pull { campaign = 3; shard = 1; progs = [ "seed\x00binary" ] };
    Protocol.Crash_report
      { campaign = 3; shard = 1; epoch = 2; crash = sample_crash () };
    Protocol.Heartbeat
      {
        campaign = 3;
        shard = 0;
        epoch = 1;
        executed = 120;
        coverage = 77;
        edge_capacity = 512;
        virtual_s = 1.625;
        bitmap = "\x00\xff\x80\x01";
      };
    Protocol.Status_req;
    Protocol.Status
      {
        rows =
          [
            {
              Protocol.campaign = 3;
              tenant = "alice";
              os = "Zephyr";
              finished = false;
              shards = 2;
              shards_done = 1;
              executed = 120;
              coverage = 77;
              crashes = 2;
            };
          ];
        workers =
          [
            { Protocol.worker = 0; name = "pit-4"; alive = true; leases = 2 };
            { Protocol.worker = 1; name = "pit-9"; alive = false; leases = 0 };
          ];
      };
    Protocol.Cancel { campaign = 3 };
    Protocol.Shard_done
      {
        campaign = 3;
        shard = 1;
        epoch = 3;
        executed = 21;
        iterations = 21;
        crash_events = 4;
        virtual_s = 2.5;
      };
    Protocol.Campaign_done
      { campaign = 3; tenant = "alice"; digest = "digest tenant alice crc=0" };
    Protocol.Worker_hello { name = "pit-4" };
    Protocol.Worker_welcome { worker = 7; heartbeat_timeout_s = 30. };
    Protocol.Shard_revoke { campaign = 3; shard = 1; epoch = 2 };
    Protocol.Worker_ping { worker = 7 };
    Protocol.Heartbeat_ack { worker = 7 };
  ]

let test_codec_roundtrip () =
  List.iter
    (fun msg ->
      match Protocol.decode (Protocol.encode msg) with
      | Ok decoded ->
        Alcotest.(check bool)
          (Printf.sprintf "%s round-trips" (Protocol.kind_name msg))
          true (decoded = msg)
      | Error e ->
        Alcotest.fail
          (Printf.sprintf "%s: %s" (Protocol.kind_name msg)
             (Protocol.error_to_string e)))
    every_kind

let check_error name expected = function
  | Error e when e = expected -> ()
  | Error e ->
    Alcotest.fail (Printf.sprintf "%s: got %s" name (Protocol.error_to_string e))
  | Ok _ -> Alcotest.fail (Printf.sprintf "%s: decoded a corrupt frame" name)

(* Patch a frame's version field and re-sign it, so only the version
   check can object. *)
let with_version frame v =
  let b = Bytes.of_string frame in
  Bytes.set_uint16_le b 4 v;
  Bytes.set_int32_le b (Bytes.length b - 4)
    (Crc32.digest_string (Bytes.sub_string b 4 (Bytes.length b - 8)));
  Bytes.to_string b

let test_codec_rejections () =
  (* every strict prefix of every message kind is Truncated, never a
     parse and never a crash *)
  List.iter
    (fun msg ->
      let frame = Protocol.encode msg in
      for n = 0 to String.length frame - 1 do
        check_error
          (Printf.sprintf "%s prefix of %d bytes" (Protocol.kind_name msg) n)
          Protocol.Truncated
          (Protocol.decode (String.sub frame 0 n))
      done)
    every_kind;
  let frame = Protocol.encode (Protocol.Accept { campaign = 9; tenant = "alice" }) in
  (* flip one payload byte: CRC catches it *)
  let corrupt = Bytes.of_string frame in
  Bytes.set corrupt Protocol.header_bytes
    (Char.chr (Char.code (Bytes.get corrupt Protocol.header_bytes) lxor 0x40));
  check_error "payload bit flip" Protocol.Bad_crc
    (Protocol.decode (Bytes.to_string corrupt));
  (* wrong magic *)
  let bad_magic = Bytes.of_string frame in
  Bytes.set bad_magic 0 'X';
  check_error "bad magic" Protocol.Bad_magic
    (Protocol.decode (Bytes.to_string bad_magic));
  (* trailing bytes are an error, not ignored *)
  (match Protocol.decode (frame ^ "\x00") with
  | Error (Protocol.Malformed _) -> ()
  | _ -> Alcotest.fail "trailing byte accepted");
  check_error "future version"
    (Protocol.Bad_version (Protocol.version + 1))
    (Protocol.decode (with_version frame (Protocol.version + 1)));
  (* v5 carried shard assignments field by field: its frames are
     refused by version, not misparsed *)
  check_error "v5 frame" (Protocol.Bad_version 5) (Protocol.decode (with_version frame 5));
  (* reset-policy code 1 (the retired snapshot policy) no longer decodes:
     it is the byte before a tenant config's closing schedule byte *)
  let submit = Bytes.of_string (Protocol.encode (Protocol.Submit sample_tenant)) in
  Bytes.set_uint8 submit (Bytes.length submit - 6) 1;
  (match Protocol.decode (with_version (Bytes.to_string submit) Protocol.version) with
  | Error (Protocol.Malformed _) -> ()
  | _ -> Alcotest.fail "reset-policy code 1 decoded")

(* Adversarial input sweep: seeded random bytes through [frame_size] and
   [decode] — pure noise, noise behind a genuine magic, and re-signed
   corruptions whose CRC is valid so the payload parsers themselves take
   the hit. Anything but a typed result is a test failure (an exception
   escapes the match and kills the test case). *)
let test_codec_random_sweep () =
  let rng = Rng.create 0xC0FFEE_5EEDL in
  let random_string n = String.init n (fun _ -> Char.chr (Rng.int rng 256)) in
  let feed s =
    (match Protocol.frame_size s with Ok _ | Error _ -> ());
    match Protocol.decode s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "random noise decoded as a frame"
  in
  for _ = 1 to 300 do
    feed (random_string (Rng.int rng 80))
  done;
  for _ = 1 to 300 do
    feed ("EOFH" ^ random_string (Rng.int rng 80))
  done;
  List.iter
    (fun msg ->
      let frame = Protocol.encode msg in
      for _ = 1 to 25 do
        let b = Bytes.of_string frame in
        for _ = 1 to 1 + Rng.int rng 3 do
          let i = 4 + Rng.int rng (Bytes.length b - 8) in
          Bytes.set b i (Char.chr (Rng.int rng 256))
        done;
        (* re-sign so the corruption reaches past the CRC check *)
        let crc =
          Crc32.digest_string (Bytes.sub_string b 4 (Bytes.length b - 8))
        in
        Bytes.set_int32_le b (Bytes.length b - 4) crc;
        let s = Bytes.to_string b in
        (match Protocol.frame_size s with Ok _ | Error _ -> ());
        match Protocol.decode s with Ok _ | Error _ -> ()
      done)
    every_kind

let test_frame_size () =
  let frame = Protocol.encode Protocol.Status_req in
  Alcotest.(check bool) "short prefix: unknown" true
    (Protocol.frame_size (String.sub frame 0 4) = Ok None);
  Alcotest.(check bool) "full header: size known" true
    (Protocol.frame_size frame = Ok (Some (String.length frame)))

(* One read can carry many frames and the start of the next: all
   complete ones decode in order, and the partial tail stays buffered
   until the rest of it arrives. *)
let test_take_frames () =
  let frames = Array.to_list (Array.sub (Array.of_list every_kind) 0 6) in
  let tail_frame = Protocol.encode (Protocol.Worker_ping { worker = 9 }) in
  let cut = String.length tail_frame / 2 in
  let buf = Buffer.create 16 in
  List.iter (fun m -> Buffer.add_string buf (Protocol.encode m)) frames;
  Buffer.add_string buf (String.sub tail_frame 0 cut);
  (match Eof_hub.Socket.take_frames buf with
   | Error e -> Alcotest.fail e
   | Ok msgs ->
     Alcotest.(check (list string)) "every complete frame, in order"
       (List.map Protocol.encode frames) (List.map Protocol.encode msgs));
  Alcotest.(check string) "partial tail kept" (String.sub tail_frame 0 cut)
    (Buffer.contents buf);
  (match Eof_hub.Socket.take_frames buf with
   | Ok [] -> ()
   | _ -> Alcotest.fail "an incomplete frame must not decode");
  Buffer.add_string buf (String.sub tail_frame cut (String.length tail_frame - cut));
  (match Eof_hub.Socket.take_frames buf with
   | Ok [ m ] ->
     Alcotest.(check string) "tail decodes once complete" tail_frame (Protocol.encode m)
   | Ok _ -> Alcotest.fail "expected exactly the tail frame"
   | Error e -> Alcotest.fail e);
  Alcotest.(check int) "buffer drained" 0 (Buffer.length buf)

(* --- tenant spec parsing ------------------------------------------------ *)

let test_tenant_spec () =
  (match Tenant.of_spec "name=alice,os=Zephyr,seed=7,iterations=400,farms=2" with
  | Ok c ->
    Alcotest.(check string) "name" "alice" c.Tenant.tenant;
    Alcotest.(check int) "farms" 2 c.Tenant.farms;
    Alcotest.(check int) "iterations" 400 c.Tenant.iterations
  | Error e -> Alcotest.fail e);
  (match Tenant.of_spec "name=bad name" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "space in tenant name accepted");
  (match Tenant.of_spec "nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non key=value accepted");
  match Tenant.of_spec "name=a,os=Zephyr,gen=compiled" with
  | Error e ->
    Alcotest.(check string) "gen key rejected" "tenant spec: unknown key \"gen\"" e
  | Ok _ -> Alcotest.fail "gen= accepted"

(* Every field the wire carries must either round-trip exactly or be
   refused up front: a value past a field's width used to wrap on
   encode (a 2^32+5 budget decoded as 5) or blow up in the decoder. *)
let test_tenant_protocol_bounds () =
  List.iter
    (fun spec ->
      match Tenant.of_spec ("name=a,os=Zephyr," ^ spec) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (spec ^ " accepted"))
    [ "iterations=4294967301"; "sync=4294967297"; "iterations=3000000000";
      "boards=70000"; "farms=65536" ];
  (match
     Tenant.of_spec
       "name=a,os=Zephyr,iterations=2147483647,sync=2147483647,boards=65535,farms=65535"
   with
  | Error e -> Alcotest.fail e
  | Ok c ->
    (match Protocol.decode (Protocol.encode (Protocol.Submit c)) with
    | Ok (Protocol.Submit d) ->
      Alcotest.(check bool) "widest config round-trips" true (c = d)
    | Ok _ -> Alcotest.fail "decoded another kind"
    | Error e -> Alcotest.fail (Protocol.error_to_string e)));
  let too_wide = { sample_tenant with iterations = 0x8000_0000 } in
  match Protocol.encode (Protocol.Submit too_wide) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "encoded a u32 its decoder cannot return"

(* --- sharding ----------------------------------------------------------- *)

(* Over random valid tenant configs: the plan is one lease per farm,
   born at epoch 1 and carrying the submitted config, and the farms
   {!Shard.farm_config} derives from it split the budget exactly, keep
   the tenant seed on shard 0 and seed every shard as
   {!Shard.shard_mix} says — distinct streams, the tenant's knobs
   passed through. *)
let prop_shard_plan =
  let module Farm = Eof_core.Farm in
  let module Campaign = Eof_core.Campaign in
  let gen =
    QCheck.Gen.(
      let+ seed = ui64
      and+ iterations = 1 -- Tenant.max_u32
      and+ farms = 1 -- 64
      and+ boards = 1 -- 16
      and+ sync_every = 1 -- 10_000
      and+ native = bool
      and+ fresh = bool
      and+ energy = bool in
      {
        sample_tenant with
        Tenant.seed;
        iterations;
        farms;
        boards;
        sync_every;
        backend = (if native then Eof_agent.Machine.Native else Eof_agent.Machine.Link);
        reset_policy = (if fresh then Campaign.Fresh_per_program else Campaign.Ladder);
        schedule = (if energy then Eof_core.Corpus.Energy else Eof_core.Corpus.Uniform);
      })
  in
  QCheck.Test.make ~name:"shard planning" ~count:200
    (QCheck.make ~print:Tenant.to_string gen)
    (fun (c : Tenant.config) ->
      let plan = Shard.plan ~campaign:9 c in
      let farms = List.map Shard.farm_config plan in
      let seeds = List.map (fun (f : Farm.config) -> f.Farm.base.Campaign.seed) farms in
      Tenant.validate c = Ok ()
      && List.length plan = c.Tenant.farms
      && List.for_all2
           (fun k (a : Shard.assignment) ->
             a = { Shard.campaign = 9; shard = k; epoch = 1; config = c })
           (List.init c.Tenant.farms Fun.id) plan
      && List.for_all
           (fun (f : Farm.config) ->
             f.Farm.boards = c.Tenant.boards
             && f.Farm.sync_every = c.Tenant.sync_every
             && f.Farm.base.Campaign.backend = c.Tenant.backend
             && f.Farm.base.Campaign.reset_policy = c.Tenant.reset_policy
             && f.Farm.base.Campaign.schedule = c.Tenant.schedule)
           farms
      && List.fold_left
           (fun acc (f : Farm.config) -> acc + f.Farm.base.Campaign.iterations)
           0 farms
         = c.Tenant.iterations
      && List.hd seeds = c.Tenant.seed
      && List.for_all2
           (fun k seed -> seed = Farm.derive_seed ~mix:Shard.shard_mix c.Tenant.seed k)
           (List.init c.Tenant.farms Fun.id) seeds
      && List.length (List.sort_uniq compare seeds) = c.Tenant.farms)

(* --- hub unit tests: registry, dedup, fencing --------------------------- *)

let hello_ok hub name =
  match Hub.hello hub ~now:0. ~name with
  | Ok (wid, _actions) -> wid
  | Error e -> Alcotest.fail e

let submit_ok hub ~client config =
  let actions = Hub.handle_client hub ~client (Protocol.Submit config) in
  match
    List.find_map
      (function
        | Hub.To_client (_, Protocol.Accept { campaign; _ }) -> Some campaign
        | Hub.To_client (_, Protocol.Reject { reason; _ }) -> Alcotest.fail reason
        | _ -> None)
      actions
  with
  | Some id -> id
  | None -> Alcotest.fail "no Accept for submission"

let test_global_crash_dedup () =
  let hub = Result.get_ok (Hub.create ~resolve ()) in
  let w0 = hello_ok hub "w0" in
  let w1 = hello_ok hub "w1" in
  let alice = submit_ok hub ~client:0 { sample_tenant with Tenant.farms = 2 } in
  let crash = sample_crash () in
  let report ~worker ~shard crash =
    ignore
      (Hub.handle_worker hub ~now:1. ~worker
         (Protocol.Crash_report { campaign = alice; shard; epoch = 1; crash })
        : Hub.action list)
  in
  (* the same bug reported by both workers of alice's campaign *)
  report ~worker:w0 ~shard:0 crash;
  report ~worker:w1 ~shard:1 crash;
  Alcotest.(check int) "two workers, one fleet entry" 1 (Hub.crashes_deduped hub);
  (* a different bug is a different entry *)
  report ~worker:w0 ~shard:0 (sample_crash ~operation:"k_mutex_lock" ());
  Alcotest.(check int) "distinct bug counted" 2 (Hub.crashes_deduped hub);
  (* a second tenant hitting the first bug: still one entry, both
     tenants attributed, and each tenant's own crash list keeps it *)
  let bob =
    submit_ok hub ~client:1
      { sample_tenant with Tenant.tenant = "bob"; farms = 1; seed = 11L }
  in
  (* bob's one shard went to the least-loaded worker: both hold one of
     alice's leases, so the tie falls to the lowest id *)
  ignore
    (Hub.handle_worker hub ~now:1. ~worker:w0
       (Protocol.Crash_report { campaign = bob; shard = 0; epoch = 1; crash })
      : Hub.action list);
  Alcotest.(check int) "second tenant, same bug, same entry" 2
    (Hub.crashes_deduped hub);
  (match Hub.fleet_crashes hub with
  | (first, tenants) :: _ ->
    Alcotest.(check string) "entry keeps the first record" crash.Crash.operation
      first.Crash.operation;
    Alcotest.(check (list string)) "attribution order" [ "alice"; "bob" ] tenants
  | [] -> Alcotest.fail "fleet crash set empty");
  let crashes_of name =
    List.find_map
      (fun (r : Protocol.status_row) ->
        if r.Protocol.tenant = name then Some r.Protocol.crashes else None)
      (Hub.status hub)
  in
  Alcotest.(check (option int)) "alice sees both bugs" (Some 2) (crashes_of "alice");
  Alcotest.(check (option int)) "bob sees his one" (Some 1) (crashes_of "bob")

let test_lease_fencing () =
  let hub = Result.get_ok (Hub.create ~resolve ()) in
  let w0 = hello_ok hub "w0" in
  let w1 = hello_ok hub "w1" in
  (* one shard, owned by w0 (both workers idle, lowest id wins) *)
  let id = submit_ok hub ~client:0 { sample_tenant with Tenant.farms = 1 } in
  let crash = sample_crash () in
  let report ~worker ~epoch =
    ignore
      (Hub.handle_worker hub ~now:1. ~worker
         (Protocol.Crash_report { campaign = id; shard = 0; epoch; crash })
        : Hub.action list)
  in
  report ~worker:w0 ~epoch:99;
  Alcotest.(check int) "stale epoch fenced" 1 (Hub.fenced hub);
  Alcotest.(check int) "fenced crash not recorded" 0 (Hub.crashes_deduped hub);
  report ~worker:w1 ~epoch:1;
  Alcotest.(check int) "non-owner fenced" 2 (Hub.fenced hub);
  report ~worker:w0 ~epoch:1;
  Alcotest.(check int) "owner at current epoch admitted" 1 (Hub.crashes_deduped hub);
  Alcotest.(check int) "admission is not a fence" 2 (Hub.fenced hub);
  (* death: the lease is revoked at its old epoch and reassigned to the
     survivor at a bumped one; the zombie's flushes are fenced *)
  let actions = Hub.worker_lost hub ~now:2. ~worker:w0 in
  Alcotest.(check bool) "revoke names the old epoch" true
    (List.exists
       (function
         | Hub.To_worker (w, Protocol.Shard_revoke { epoch = 1; _ }) -> w = w0
         | _ -> false)
       actions);
  Alcotest.(check bool) "reassigned to the survivor at a bumped epoch" true
    (List.exists
       (function
         | Hub.To_worker (w, Protocol.Shard_assign a) ->
           w = w1 && a.Shard.epoch = 2
         | _ -> false)
       actions);
  Alcotest.(check int) "one reassignment counted" 1 (Hub.reassignments hub);
  report ~worker:w0 ~epoch:1;
  Alcotest.(check int) "zombie flush fenced" 3 (Hub.fenced hub);
  (* dead is dead: a late ping from the zombie earns no ack *)
  Alcotest.(check int) "zombie ping unanswered" 0
    (List.length
       (Hub.handle_worker hub ~now:3. ~worker:w0 (Protocol.Worker_ping { worker = w0 })))

(* --- worker corpus exchange --------------------------------------------- *)

(* A worker pushes each exchange-corpus program at most once, and never
   echoes a transplant back: after a [Corpus_pull] the next push from
   that shard carries none of the pulled encodings. *)
let test_worker_push_once () =
  let w = Worker.create ~name:"w" ~resolve () in
  ignore (Worker.handle w (Protocol.Worker_welcome { worker = 0; heartbeat_timeout_s = 10. }));
  let a =
    List.hd
      (Shard.plan ~campaign:1
         { sample_tenant with Tenant.iterations = 400; farms = 1; boards = 2 })
  in
  ignore (Worker.handle w (Protocol.Shard_assign a));
  let pushes = ref [] in
  (* Step until a flush carries a corpus push; [false] once idle. *)
  let rec next_push () =
    if Worker.next_cpu_s w = None then false
    else
      match
        List.concat_map
          (function Protocol.Corpus_push { progs; _ } -> progs | _ -> [])
          (Worker.step w)
      with
      | [] -> next_push ()
      | progs ->
        pushes := progs :: !pushes;
        true
  in
  Alcotest.(check bool) "a first push" true (next_push ());
  let pulled =
    let target = Result.get_ok (resolve "Zephyr") in
    let gen =
      Eof_core.Gen.create ~rng:(Rng.create 99L) ~spec:target.Worker.spec
        ~table:target.Worker.table ()
    in
    List.init 8 (fun _ -> Eof_core.Gen.generate gen ~max_len:6)
    |> List.filter_map Protocol.encode_prog
    |> List.filter (fun s -> not (List.mem s (List.concat !pushes)))
  in
  ignore
    (Worker.handle w (Protocol.Corpus_pull { campaign = 1; shard = 0; progs = pulled }));
  Alcotest.(check bool) "pulled programs admitted" true (Worker.transplanted w > 0);
  Alcotest.(check bool) "a push after the pull" true (next_push ());
  Alcotest.(check bool) "the next push echoes no transplant" true
    (List.for_all (fun s -> not (List.mem s pulled)) (List.hd !pushes));
  while next_push () do () done;
  let all = List.concat !pushes in
  Alcotest.(check int) "no encoding pushed twice" (List.length all)
    (List.length (List.sort_uniq compare all));
  Alcotest.(check bool) "no transplant ever pushed back" true
    (List.for_all (fun s -> not (List.mem s pulled)) all)

(* --- the deterministic fleet soak --------------------------------------- *)

let fleet_tenants =
  [
    { sample_tenant with Tenant.iterations = 120; farms = 2 };
    {
      sample_tenant with
      Tenant.tenant = "bob";
      os = "FreeRTOS";
      seed = 11L;
      iterations = 120;
      farms = 2;
    };
  ]

let run_fleet () =
  match Inproc.run ~farms:2 fleet_tenants ~resolve with
  | Ok o -> o
  | Error e -> Alcotest.fail e

let test_inproc_deterministic () =
  let a = run_fleet () and b = run_fleet () in
  Alcotest.(check string) "fleet digest byte-identical" a.Inproc.fleet_digest
    b.Inproc.fleet_digest;
  Alcotest.(check string) "summaries byte-identical" (Inproc.summary a)
    (Inproc.summary b);
  List.iter2
    (fun (x : Inproc.tenant_result) (y : Inproc.tenant_result) ->
      Alcotest.(check string)
        (Printf.sprintf "tenant %s digest" x.Inproc.tenant)
        x.Inproc.digest y.Inproc.digest)
    a.Inproc.tenants b.Inproc.tenants

let test_inproc_fleet_results () =
  let o = run_fleet () in
  Alcotest.(check int) "both tenants finished" 2 (List.length o.Inproc.tenants);
  Alcotest.(check int) "full budget executed" 240 o.Inproc.payloads;
  Alcotest.(check bool) "corpus sync transplanted at least one seed" true
    (o.Inproc.transplants >= 1);
  Alcotest.(check int) "no deaths, no reassignments" 0 o.Inproc.reassignments;
  Alcotest.(check int) "no stale traffic on a healthy fleet" 0 o.Inproc.fenced;
  List.iter
    (fun (r : Inproc.tenant_result) ->
      Alcotest.(check int)
        (Printf.sprintf "tenant %s executed its slice" r.Inproc.tenant)
        120 r.Inproc.executed;
      Alcotest.(check bool)
        (Printf.sprintf "tenant %s found coverage" r.Inproc.tenant)
        true
        (r.Inproc.coverage > 0))
    o.Inproc.tenants;
  (* the fleet set can never exceed the sum of per-tenant sets, and
     with sync on, sibling shards of one tenant overlap heavily *)
  let tenant_sum =
    List.fold_left (fun acc (r : Inproc.tenant_result) -> acc + r.Inproc.crashes) 0
      o.Inproc.tenants
  in
  Alcotest.(check bool) "fleet dedup is global" true
    (o.Inproc.crashes_deduped <= tenant_sum)

let test_cross_personality_transplants () =
  (* A tenant alone only gets same-personality relay between its own
     shards. Two personalities side by side add retyped seeds on top,
     so the joint fleet must out-transplant the sum of the solo runs —
     and stay deterministic while doing it. *)
  let solo t =
    match Inproc.run ~farms:2 [ t ] ~resolve with
    | Ok o -> o.Inproc.transplants
    | Error e -> Alcotest.fail e
  in
  let same_personality = List.fold_left (fun acc t -> acc + solo t) 0 fleet_tenants in
  let joint = run_fleet () in
  Alcotest.(check bool)
    (Printf.sprintf "retyped seeds cross personalities (%d joint vs %d solo)"
       joint.Inproc.transplants same_personality)
    true
    (joint.Inproc.transplants > same_personality);
  let again = run_fleet () in
  Alcotest.(check int) "cross-personality relay is deterministic"
    joint.Inproc.transplants again.Inproc.transplants;
  Alcotest.(check string) "fleet digest unmoved by rerun" joint.Inproc.fleet_digest
    again.Inproc.fleet_digest

let test_corpus_sync_off () =
  match
    Inproc.run ~farms:2 ~corpus_sync:false fleet_tenants ~resolve
  with
  | Error e -> Alcotest.fail e
  | Ok o ->
    Alcotest.(check int) "no transplants without sync" 0 o.Inproc.transplants;
    Alcotest.(check int) "budget still executed" 240 o.Inproc.payloads

(* --- fault drills: scripted death, journal resume ----------------------- *)

let run_fleet_kill kill =
  match Inproc.run ~farms:2 ~kill fleet_tenants ~resolve with
  | Ok o -> o
  | Error e -> Alcotest.fail e

let test_worker_death_recovery () =
  (* killed after 60 steps: past the first epoch flush on each of its
     shards, so the hub has heartbeat state to write off at the revoke *)
  let o = run_fleet_kill (1, 60) in
  (* the fleet loses a worker, not a tenant *)
  Alcotest.(check int) "both tenants still finish" 2 (List.length o.Inproc.tenants);
  Alcotest.(check int) "full budget still executed" 240 o.Inproc.payloads;
  List.iter
    (fun (r : Inproc.tenant_result) ->
      Alcotest.(check int)
        (Printf.sprintf "tenant %s executed its slice" r.Inproc.tenant)
        120 r.Inproc.executed)
    o.Inproc.tenants;
  Alcotest.(check bool) "dead worker's leases were reassigned" true
    (o.Inproc.reassignments >= 1);
  Alcotest.(check bool) "the dead worker's progress was written off" true
    (o.Inproc.payloads_lost >= 1);
  Alcotest.(check bool) "recovery lag measured on the virtual clock" true
    (o.Inproc.recovery_lag > 0.)

let test_worker_death_deterministic () =
  let a = run_fleet_kill (1, 60) and b = run_fleet_kill (1, 60) in
  Alcotest.(check string) "scripted-death summaries byte-identical"
    (Inproc.summary a) (Inproc.summary b);
  Alcotest.(check string) "scripted-death fleet digest byte-identical"
    a.Inproc.fleet_digest b.Inproc.fleet_digest;
  Alcotest.(check int) "same recovery, same reassignment count"
    a.Inproc.reassignments b.Inproc.reassignments;
  Alcotest.(check int) "same recovery, same payloads lost" a.Inproc.payloads_lost
    b.Inproc.payloads_lost

(* A kill drill naming a worker the fleet does not have must fail the
   run, not finish it with the drill silently skipped. *)
let test_kill_unknown_worker () =
  match Inproc.run ~farms:2 ~kill:(2, 60) fleet_tenants ~resolve with
  | Ok _ -> Alcotest.fail "kill drill on worker 2 of 2 ran without error"
  | Error e ->
    Alcotest.(check string) "error names the worker and the farm count"
      "inproc: cannot kill worker 2: the fleet has 2 farm(s), workers 0..1" e

let with_temp_journal f =
  let path = Filename.temp_file "eof-hub" ".journal" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let test_journal_resume () =
  with_temp_journal @@ fun path ->
  let base = run_fleet () in
  (match
     Inproc.run ~farms:2 ~journal:path ~halt_after:60 fleet_tenants ~resolve
   with
  | Error e -> Alcotest.fail e
  | Ok h ->
    Alcotest.(check bool) "halted mid-campaign" true h.Inproc.halted;
    Alcotest.(check bool) "halted before any tenant finished" true
      (List.length h.Inproc.tenants < 2));
  match Inproc.run ~farms:2 ~journal:path fleet_tenants ~resolve with
  | Error e -> Alcotest.fail e
  | Ok resumed ->
    Alcotest.(check bool) "journal frames replayed" true
      (resumed.Inproc.replayed_frames > 0);
    Alcotest.(check bool) "resume completed" false resumed.Inproc.halted;
    Alcotest.(check string) "resumed fleet digest = uninterrupted fleet digest"
      base.Inproc.fleet_digest resumed.Inproc.fleet_digest;
    Alcotest.(check string) "resumed summary = uninterrupted summary"
      (Inproc.summary base) (Inproc.summary resumed)

let test_journal_double_restart () =
  with_temp_journal @@ fun path ->
  let base = run_fleet () in
  let halt n =
    match
      Inproc.run ~farms:2 ~journal:path ~halt_after:n fleet_tenants ~resolve
    with
    | Error e -> Alcotest.fail e
    | Ok h -> Alcotest.(check bool) "halted" true h.Inproc.halted
  in
  (* two successive crashes: the second replay must wind unfinished
     campaigns back at the same point in the frame stream the first
     restart did, or the digests drift *)
  halt 45;
  halt 120;
  match Inproc.run ~farms:2 ~journal:path fleet_tenants ~resolve with
  | Error e -> Alcotest.fail e
  | Ok resumed ->
    Alcotest.(check string) "fleet digest survives two restarts"
      base.Inproc.fleet_digest resumed.Inproc.fleet_digest;
    Alcotest.(check string) "summary survives two restarts"
      (Inproc.summary base) (Inproc.summary resumed)

(* Live traffic and journal replay go through one apply path, so a
   fresh hub replaying a finished fleet's journal must hold exactly what
   the live hub held: digests, the fleet crash set with its attribution
   order, and the status rows. *)
let test_journal_replay_rebuilds_live () =
  with_temp_journal @@ fun path ->
  let live =
    match Inproc.run ~farms:2 ~journal:path fleet_tenants ~resolve with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  let hub =
    match Hub.create ~journal:path ~resolve () with
    | Ok hub -> hub
    | Error e -> Alcotest.fail e
  in
  Hub.close hub;
  Alcotest.(check bool) "the live fleet found crashes" true
    (live.Inproc.crashes_deduped > 0);
  Alcotest.(check (list (pair string string))) "tenant digests"
    (List.map
       (fun (r : Inproc.tenant_result) -> (r.Inproc.tenant, r.Inproc.digest))
       live.Inproc.tenants)
    (Hub.tenant_digests hub);
  Alcotest.(check string) "fleet digest" live.Inproc.fleet_digest (Hub.fleet_digest hub);
  Alcotest.(check int) "crashes deduped" live.Inproc.crashes_deduped
    (Hub.crashes_deduped hub);
  let keyed = List.map (fun (c, tenants) -> (Crash.dedup_key c, tenants)) in
  Alcotest.(check (list (pair string (list string))))
    "fleet crashes: discovery and attribution order"
    (keyed live.Inproc.fleet_crashes)
    (keyed (Hub.fleet_crashes hub));
  Alcotest.(check bool) "fleet crash records" true
    (List.map fst live.Inproc.fleet_crashes = List.map fst (Hub.fleet_crashes hub));
  Alcotest.(check (list string)) "status rows"
    (List.map
       (fun (r : Inproc.tenant_result) ->
         Printf.sprintf "%s #%d done 2/2 executed=%d coverage=%d crashes=%d"
           r.Inproc.tenant r.Inproc.campaign r.Inproc.executed r.Inproc.coverage
           r.Inproc.crashes)
       live.Inproc.tenants)
    (List.map
       (fun (r : Protocol.status_row) ->
         Printf.sprintf "%s #%d %s %d/%d executed=%d coverage=%d crashes=%d"
           r.Protocol.tenant r.Protocol.campaign
           (if r.Protocol.finished then "done" else "running")
           r.Protocol.shards_done r.Protocol.shards r.Protocol.executed
           r.Protocol.coverage r.Protocol.crashes)
       (Hub.status hub))

(* A complete frame of another protocol version is an unreadable
   journal, not a torn tail: replaying the prefix before it would
   silently restart every campaign. *)
let test_journal_old_version () =
  with_temp_journal @@ fun path ->
  let frame = Protocol.encode (Protocol.Submit sample_tenant) in
  let write s = Out_channel.with_open_bin path (fun oc -> output_string oc s) in
  write (frame ^ String.sub frame 0 5);
  (match Eof_hub.Journal.replay path with
  | Ok [ _ ] -> ()
  | _ -> Alcotest.fail "torn tail not tolerated");
  write (frame ^ with_version frame 4);
  (match Eof_hub.Journal.replay path with
  | Error e ->
    Alcotest.(check string) "version error"
      (Printf.sprintf "journal written by protocol v4; this hub speaks v%d"
         Protocol.version)
      e
  | Ok _ -> Alcotest.fail "v4 journal replayed");
  match Hub.create ~journal:path ~resolve () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "hub started on a v4 journal"

let suite =
  [
    Alcotest.test_case "codec round-trips every kind" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec rejects corrupt frames" `Quick test_codec_rejections;
    Alcotest.test_case "codec survives random bytes" `Quick test_codec_random_sweep;
    Alcotest.test_case "frame size detection" `Quick test_frame_size;
    Alcotest.test_case "socket framing: many frames and a partial tail" `Quick
      test_take_frames;
    Alcotest.test_case "tenant spec parsing" `Quick test_tenant_spec;
    Alcotest.test_case "tenant fields fit the protocol" `Quick
      test_tenant_protocol_bounds;
    QCheck_alcotest.to_alcotest prop_shard_plan;
    Alcotest.test_case "global crash dedup with attribution" `Quick
      test_global_crash_dedup;
    Alcotest.test_case "lease epochs fence stale traffic" `Quick test_lease_fencing;
    Alcotest.test_case "worker pushes each program once, echoes no pull" `Quick
      test_worker_push_once;
    Alcotest.test_case "inproc fleet is deterministic" `Quick
      test_inproc_deterministic;
    Alcotest.test_case "inproc fleet results" `Quick test_inproc_fleet_results;
    Alcotest.test_case "cross-personality transplants" `Quick
      test_cross_personality_transplants;
    Alcotest.test_case "corpus sync off" `Quick test_corpus_sync_off;
    Alcotest.test_case "worker death: shards reassigned, no tenant lost" `Quick
      test_worker_death_recovery;
    Alcotest.test_case "worker death: recovery is deterministic" `Quick
      test_worker_death_deterministic;
    Alcotest.test_case "kill drill on an unknown worker is an error" `Quick
      test_kill_unknown_worker;
    Alcotest.test_case "journal: halt and resume reaches the same digest" `Quick
      test_journal_resume;
    Alcotest.test_case "journal: survives a double restart" `Quick
      test_journal_double_restart;
    Alcotest.test_case "journal: replay rebuilds the live hub" `Quick
      test_journal_replay_rebuilds_live;
    Alcotest.test_case "journal: older protocol version is refused" `Quick
      test_journal_old_version;
  ]
