open Eof_hw
open Eof_rtos

let make_ram () = Memory.create ~base:0x2000_0000 ~size:65536 ~endianness:Arch.Little

let make_heap ?(size = 4096) () =
  let ram = make_ram () in
  match Heap.init ~mem:ram ~base:0x2000_1000 ~size with
  | Ok h -> (ram, h)
  | Error e -> Alcotest.fail e

let test_heap_init_validation () =
  let ram = make_ram () in
  (match Heap.init ~mem:ram ~base:0x2000_1000 ~size:8 with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "tiny region accepted");
  (match Heap.init ~mem:ram ~base:0x2000_1004 ~size:64 with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "misaligned base accepted");
  match Heap.init ~mem:ram ~base:0x2000_1000 ~size:(1 lsl 20) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized region accepted"

let test_heap_alloc_free () =
  let _, h = make_heap () in
  let a = Option.get (Heap.alloc h 100) in
  let b = Option.get (Heap.alloc h 200) in
  Alcotest.(check bool) "disjoint" true (b >= a + 100 || a >= b + 200);
  Alcotest.(check bool) "used grows" true (Heap.used_bytes h >= 300);
  (match Heap.free h a with Ok () -> () | Error e -> Alcotest.fail e);
  (match Heap.free h b with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check int) "all free" 0 (Heap.used_bytes h);
  (* One block left: everything but its 8-byte header is free. *)
  Alcotest.(check int) "coalesced to one block" (Heap.size h - 8) (Heap.free_bytes h)

let test_heap_double_free () =
  let _, h = make_heap () in
  let a = Option.get (Heap.alloc h 64) in
  (match Heap.free h a with Ok () -> () | Error e -> Alcotest.fail e);
  match Heap.free h a with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "double free accepted"

let test_heap_exhaustion () =
  let _, h = make_heap ~size:256 () in
  let rec grab acc =
    match Heap.alloc h 32 with Some a -> grab (a :: acc) | None -> acc
  in
  let blocks = grab [] in
  Alcotest.(check bool) "some allocations" true (List.length blocks >= 4);
  Alcotest.(check (option int)) "exhausted" None (Heap.alloc h 32);
  List.iter (fun a -> ignore (Heap.free h a : (unit, string) result)) blocks;
  Alcotest.(check bool) "recovered" true (Heap.alloc h 128 <> None)

let test_heap_corruption_detected () =
  let ram, h = make_heap () in
  let a = Option.get (Heap.alloc h 32) in
  ignore a;
  (* Scribble the first block header. *)
  Memory.write_u32 ram (Heap.base h + 4) 0xBADC0DEl;
  (match Heap.check h with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "corruption not reported by check");
  try
    ignore (Heap.alloc h 8 : int option);
    Alcotest.fail "corrupted walk did not fault"
  with Fault.Trap f ->
    Alcotest.(check bool) "mem fault" true (f.Fault.kind = Fault.Mem_manage_fault)

let test_heap_lock () =
  let _, h = make_heap () in
  (match Heap.lock h with Ok () -> () | Error _ -> Alcotest.fail "first lock");
  (match Heap.lock h with
   | Error `Already_locked -> ()
   | Ok () -> Alcotest.fail "re-entry allowed");
  Heap.unlock h;
  match Heap.lock h with Ok () -> () | Error _ -> Alcotest.fail "relock after unlock"

let test_kobj_lifecycle () =
  let reg = Kobj.create () in
  let obj = Sem.create ~reg ~name:"s" ~initial:1 ~max_count:2 in
  let obj = match obj with Ok o -> o | Error _ -> Alcotest.fail "create" in
  (match Kobj.lookup_active reg obj.Kobj.handle ~kind:"sem" with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "lookup active");
  (match Kobj.lookup_active reg obj.Kobj.handle ~kind:"msgq" with
   | Error e -> Alcotest.(check int64) "kind mismatch" Kerr.einval e
   | Ok _ -> Alcotest.fail "wrong kind accepted");
  Kobj.delete obj;
  (match Kobj.lookup_active reg obj.Kobj.handle ~kind:"sem" with
   | Error e -> Alcotest.(check int64) "deleted" Kerr.enoent e
   | Ok _ -> Alcotest.fail "deleted still active");
  (* The carcass is still reachable through the unchecked lookup. *)
  Alcotest.(check bool) "carcass reachable" true (Kobj.lookup reg obj.Kobj.handle <> None)

type Kobj.payload += Probe

type kobj_op = Register of int | Detach of int | Delete of int | Query of int

(* The registry walk [first_of_kind] replaced: every active object of
   the kind, sorted by handle, head taken. *)
let first_of_kind_by_sort objs kind =
  List.fold_left
    (fun acc (o : Kobj.obj) -> if o.state = Kobj.Active && o.kind = kind then o :: acc else acc)
    [] objs
  |> List.sort (fun (a : Kobj.obj) b -> compare a.handle b.handle)
  |> function
  | o :: _ -> Some o.Kobj.handle
  | [] -> None

let first_of_kind_matches_sort =
  let kinds = [| "sem"; "event"; "timer" |] in
  let op =
    QCheck.Gen.(
      frequency
        [
          (4, map (fun k -> Register k) (int_bound 2));
          (2, map (fun i -> Detach i) (int_bound 63));
          (2, map (fun i -> Delete i) (int_bound 63));
          (3, map (fun k -> Query k) (int_bound 2));
        ])
  in
  let show = function
    | Register k -> "register " ^ kinds.(k)
    | Detach i -> Printf.sprintf "detach #%d" i
    | Delete i -> Printf.sprintf "delete #%d" i
    | Query k -> "query " ^ kinds.(k)
  in
  QCheck.Test.make ~name:"kobj first_of_kind = head of sorted walk" ~count:300
    (QCheck.make ~print:QCheck.Print.(list show) QCheck.Gen.(list_size (0 -- 120) op))
    (fun ops ->
      let reg = Kobj.create () in
      let objs = ref [] in
      let nth i f = match !objs with [] -> () | l -> f (List.nth l (i mod List.length l)) in
      (* Queries land at random points, so a cursor is sometimes far
         behind the registry and sometimes parked on a live object. *)
      List.for_all
        (function
          | Register k ->
            objs := Kobj.register reg ~kind:kinds.(k) ~name:"o" Probe :: !objs;
            true
          | Detach i ->
            nth i Kobj.detach;
            true
          | Delete i ->
            nth i Kobj.delete;
            true
          | Query k ->
            Option.map (fun o -> o.Kobj.handle) (Kobj.first_of_kind reg kinds.(k))
            = first_of_kind_by_sort !objs kinds.(k))
        ops)

let test_msgq_fifo () =
  let ram, h = make_heap () in
  ignore ram;
  let reg = Kobj.create () in
  let obj =
    match Msgq.create ~reg ~heap:h ~name:"q" ~capacity:2 ~item_size:4 with
    | Ok o -> o
    | Error _ -> Alcotest.fail "create"
  in
  let q = Option.get (Msgq.of_obj obj) in
  (match Msgq.recv q with
   | Error e -> Alcotest.(check int64) "empty" Kerr.eagain e
   | Ok _ -> Alcotest.fail "recv from empty");
  (match Msgq.send q "ab" with Ok () -> () | Error _ -> Alcotest.fail "send 1");
  (match Msgq.send q "cdef99" with Ok () -> () | Error _ -> Alcotest.fail "send 2");
  (match Msgq.send q "x" with
   | Error e -> Alcotest.(check int64) "full" Kerr.eagain e
   | Ok () -> Alcotest.fail "overfull");
  (match Msgq.recv q with
   | Ok m -> Alcotest.(check string) "padded fifo" "ab\000\000" m
   | Error _ -> Alcotest.fail "recv 1");
  (match Msgq.recv q with
   | Ok m -> Alcotest.(check string) "truncated fifo" "cdef" m
   | Error _ -> Alcotest.fail "recv 2")

let test_msgq_purge_poisons () =
  let _, h = make_heap () in
  let reg = Kobj.create () in
  let obj =
    match Msgq.create ~reg ~heap:h ~name:"q" ~capacity:2 ~item_size:4 with
    | Ok o -> o
    | Error _ -> Alcotest.fail "create"
  in
  let q = Option.get (Msgq.of_obj obj) in
  ignore (Msgq.send q "data" : (unit, int64) result);
  Msgq.purge q;
  Alcotest.(check bool) "purged flag" true q.Msgq.purged;
  Alcotest.(check int) "emptied" 0 (Msgq.count q)

let test_sem_bounds () =
  let reg = Kobj.create () in
  (match Sem.create ~reg ~name:"bad" ~initial:5 ~max_count:3 with
   | Error e -> Alcotest.(check int64) "invalid" Kerr.einval e
   | Ok _ -> Alcotest.fail "initial > max accepted");
  let obj =
    match Sem.create ~reg ~name:"s" ~initial:1 ~max_count:2 with
    | Ok o -> o
    | Error _ -> Alcotest.fail "create"
  in
  let s = Option.get (Sem.of_obj obj) in
  (match Sem.take s with Ok () -> () | Error _ -> Alcotest.fail "take");
  (match Sem.take s with
   | Error e -> Alcotest.(check int64) "empty take" Kerr.eagain e
   | Ok () -> Alcotest.fail "negative count");
  ignore (Sem.give s : (unit, int64) result);
  ignore (Sem.give s : (unit, int64) result);
  match Sem.give s with
  | Error e -> Alcotest.(check int64) "over give" Kerr.enospc e
  | Ok () -> Alcotest.fail "count above max"

let test_mutex_ownership () =
  let reg = Kobj.create () in
  let m = Option.get (Mutex.of_obj (Mutex.create ~reg ~name:"m")) in
  (match Mutex.lock m ~owner:1 with Ok () -> () | Error _ -> Alcotest.fail "lock");
  (match Mutex.lock m ~owner:1 with Ok () -> () | Error _ -> Alcotest.fail "recursive");
  (match Mutex.lock m ~owner:2 with
   | Error e -> Alcotest.(check int64) "contended" Kerr.ebusy e
   | Ok () -> Alcotest.fail "stolen");
  (match Mutex.unlock m ~owner:2 with
   | Error e -> Alcotest.(check int64) "not owner" Kerr.eperm e
   | Ok () -> Alcotest.fail "foreign unlock");
  ignore (Mutex.unlock m ~owner:1 : (unit, int64) result);
  (match Mutex.lock m ~owner:2 with
   | Error e -> Alcotest.(check int64) "still held (depth)" Kerr.ebusy e
   | Ok () -> Alcotest.fail "released at depth 1");
  ignore (Mutex.unlock m ~owner:1 : (unit, int64) result);
  match Mutex.lock m ~owner:2 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "not released"

let test_event_flags () =
  let reg = Kobj.create () in
  let e = Option.get (Event.of_obj (Event.create ~reg ~name:"e")) in
  Event.send e 0b0101;
  (match Event.recv e ~mask:0b0001 ~all:false ~clear:false with
   | Ok got -> Alcotest.(check int) "any" 0b0001 got
   | Error _ -> Alcotest.fail "any");
  (match Event.recv e ~mask:0b0011 ~all:true ~clear:false with
   | Error e' -> Alcotest.(check int64) "all unsatisfied" Kerr.eagain e'
   | Ok _ -> Alcotest.fail "all with missing bit");
  (match Event.recv e ~mask:0b0101 ~all:true ~clear:true with
   | Ok got -> Alcotest.(check int) "all+clear" 0b0101 got
   | Error _ -> Alcotest.fail "all");
  (match Event.recv e ~mask:0b0101 ~all:false ~clear:false with
   | Error e' -> Alcotest.(check int64) "cleared" Kerr.eagain e'
   | Ok _ -> Alcotest.fail "cleared flags still pending");
  match Event.recv e ~mask:0 ~all:false ~clear:false with
  | Error e' -> Alcotest.(check int64) "empty mask" Kerr.einval e'
  | Ok _ -> Alcotest.fail "empty mask accepted"

let test_timer_wheel () =
  let reg = Kobj.create () in
  let wheel = Swtimer.create_wheel () in
  let fired = ref 0 in
  let t1 =
    match
      Swtimer.create ~reg ~wheel ~name:"t1" ~kind:Swtimer.Oneshot ~period:2
        ~callback:(fun () -> incr fired)
    with
    | Ok o -> Option.get (Swtimer.of_obj o)
    | Error _ -> Alcotest.fail "create"
  in
  Swtimer.start t1;
  Alcotest.(check int) "tick 1: nothing" 0 (Swtimer.tick wheel);
  Alcotest.(check int) "tick 2: fires" 1 (Swtimer.tick wheel);
  Alcotest.(check int) "oneshot stops" 0 (Swtimer.tick wheel);
  Alcotest.(check int) "fired once" 1 !fired;
  let t2 =
    match
      Swtimer.create ~reg ~wheel ~name:"t2" ~kind:Swtimer.Periodic ~period:1
        ~callback:(fun () -> incr fired)
    with
    | Ok o -> Option.get (Swtimer.of_obj o)
    | Error _ -> Alcotest.fail "create periodic"
  in
  Swtimer.start t2;
  ignore (Swtimer.tick wheel : int);
  ignore (Swtimer.tick wheel : int);
  Alcotest.(check int) "periodic fires each tick" 3 !fired

let test_mempool () =
  let _, h = make_heap () in
  let reg = Kobj.create () in
  let pool =
    match Mempool.create_unchecked ~reg ~heap:h ~name:"p" ~block_size:16 ~block_count:2 with
    | Ok o -> Option.get (Mempool.of_obj o)
    | Error _ -> Alcotest.fail "create"
  in
  let a = match Mempool.alloc pool with Ok a -> a | Error _ -> Alcotest.fail "alloc 1" in
  let _b = match Mempool.alloc pool with Ok b -> b | Error _ -> Alcotest.fail "alloc 2" in
  (match Mempool.alloc pool with
   | Error e -> Alcotest.(check int64) "exhausted" Kerr.enomem e
   | Ok _ -> Alcotest.fail "over-alloc");
  (match Mempool.free_block pool a with Ok () -> () | Error _ -> Alcotest.fail "free");
  (match Mempool.free_block pool a with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "double free");
  (* The stride-0 pool faults on alloc (bug #7's mechanism). *)
  let zero =
    match Mempool.create_unchecked ~reg ~heap:h ~name:"z" ~block_size:0 ~block_count:4 with
    | Ok o -> Option.get (Mempool.of_obj o)
    | Error _ -> Alcotest.fail "create zero"
  in
  try
    ignore (Mempool.alloc zero : (int, int64) result);
    Alcotest.fail "stride-0 alloc did not fault"
  with Fault.Trap _ -> ()

let test_sched_priorities () =
  let reg = Kobj.create () in
  let wheel = Swtimer.create_wheel () in
  let sched = Sched.create ~reg ~wheel in
  let log = ref [] in
  let spawn name prio =
    match
      Sched.spawn sched ~name ~priority:prio ~stack_size:512 ~body:(fun _ ->
          log := name :: !log)
    with
    | Ok o -> Option.get (Sched.of_obj o)
    | Error _ -> Alcotest.fail "spawn"
  in
  let _lo = spawn "low" 10 in
  let hi = spawn "high" 1 in
  Sched.tick sched;
  Alcotest.(check (list string)) "high runs first" [ "high" ] !log;
  Sched.suspend hi;
  Sched.tick sched;
  Alcotest.(check (list string)) "low runs when high suspended" [ "low"; "high" ] !log;
  Sched.resume hi;
  Sched.tick sched;
  Alcotest.(check (list string)) "high again" [ "high"; "low"; "high" ] !log;
  match Sched.spawn sched ~name:"bad" ~priority:99 ~stack_size:512 ~body:(fun _ -> ()) with
  | Error e -> Alcotest.(check int64) "priority bounds" Kerr.einval e
  | Ok _ -> Alcotest.fail "bad priority accepted"

let test_sched_round_robin () =
  let reg = Kobj.create () in
  let wheel = Swtimer.create_wheel () in
  let sched = Sched.create ~reg ~wheel in
  let log = ref [] in
  let spawn name =
    ignore
      (Sched.spawn sched ~name ~priority:5 ~stack_size:512 ~body:(fun _ ->
           log := name :: !log))
  in
  spawn "a";
  spawn "b";
  Sched.run_ticks sched 4;
  let a_runs = List.length (List.filter (( = ) "a") !log) in
  let b_runs = List.length (List.filter (( = ) "b") !log) in
  Alcotest.(check int) "fair a" 2 a_runs;
  Alcotest.(check int) "fair b" 2 b_runs

(* A personality whose every instance installs [entries]; [installs]
   counts the instances. *)
let spec_of ?(installs = ref 0) entries =
  {
    Eof_os.Osbuild.os_name = "X";
    version = "0";
    base_kernel_bytes = 0x8000;
    modules = [];
    banner = "X";
    kernel_patches = [];
    install =
      (fun _ ->
        incr installs;
        Api.make_table ~os:"X" entries);
  }

let api_entry ?(weight = 1) name args ret =
  { Api.name; args; ret; doc = ""; weight; handler = (fun _ -> Api.ok_status) }

let build_of spec = Eof_os.Osbuild.make ~board_profile:Profiles.stm32f4_disco spec

(* Validation runs where a build is made: each fault is rejected with
   its message. *)
let test_api_table_validation () =
  let rejects msg entries =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore (build_of (spec_of entries)))
  in
  rejects "Api.make_table: use.q consumes kind queue nobody produces"
    [ api_entry "use" [ ("q", Api.A_res "queue") ] `Status ];
  rejects "Api.make_table: duplicate entry a"
    [ api_entry "a" [] `Status; api_entry "b" [] `Status; api_entry "a" [] `Status ];
  rejects "Api.make_table: z has weight 0" [ api_entry ~weight:0 "z" [] `Status ];
  (* Several faults: names are checked before weights and kinds, each
     in entry order. *)
  rejects "Api.make_table: b has weight 0"
    [ api_entry "use" [ ("q", Api.A_res "queue") ] `Status;
      api_entry ~weight:0 "b" [] `Status; api_entry ~weight:0 "c" [] `Status ];
  rejects "Api.make_table: duplicate entry b"
    [ api_entry ~weight:0 "a" [] `Status; api_entry "b" [] `Status;
      api_entry "c" [] `Status; api_entry "c" [] `Status; api_entry "b" [] `Status ];
  let build =
    build_of
      (spec_of
         [ api_entry "mk" [] (`Resource "queue");
           api_entry "use" [ ("q", Api.A_res "queue") ] `Status ])
  in
  Alcotest.(check (list string)) "kinds" [ "queue" ]
    (Api.resource_kinds (Eof_os.Osbuild.api_signatures build))

(* A bad table stops the build on its one throwaway instance: no build
   is handed out, so the board never boots and no payload runs. *)
let test_api_table_fails_before_payloads () =
  let installs = ref 0 in
  (match build_of (spec_of ~installs [ api_entry "ok" [] `Status; api_entry "ok" [] `Status ]) with
   | _ -> Alcotest.fail "bad table built"
   | exception Invalid_argument _ -> ());
  Alcotest.(check int) "installed once, never booted" 1 !installs

(* The build validates one instance's table and trusts every later boot
   to have the same shape; pin that premise for each personality. *)
let test_every_boot_has_validated_shape () =
  let shape (table : Api.table) =
    List.map
      (fun (e : Api.entry) ->
        ( e.Api.name,
          e.Api.weight,
          List.map (fun (n, ty) -> (n, Api.arg_type_to_string ty)) e.Api.args,
          e.Api.ret ))
      table.Api.entries
  in
  List.iter
    (fun (target : Eof_expt.Targets.hw_target) ->
      let build = Eof_expt.Targets.build_hw target in
      let boot () =
        shape
          (Eof_exec.Target.run_silent (fun () -> Eof_os.Osbuild.fresh_instance build))
            .Eof_os.Osbuild.table
      in
      let validated = shape (Eof_os.Osbuild.api_signatures build) in
      let os = target.Eof_expt.Targets.spec.Eof_os.Osbuild.os_name in
      Alcotest.(check bool) (os ^ ": first boot has the validated shape") true (boot () = validated);
      Alcotest.(check bool) (os ^ ": so does the next") true (boot () = validated))
    Eof_expt.Targets.all

let test_panic_and_assert_output () =
  let board = Board.create Profiles.stm32f4_disco in
  let ctx = { Panic.os_name = "TestOS"; panic_site = 0x100; assert_site = 0x104 } in
  let engine =
    Eof_exec.Engine.create ~board ~fault_vector:0x100 ~entry:(fun () ->
        Panic.kassert ctx false "something odd";
        Panic.panic ctx ~backtrace:[ "a.c : f : 1" ] "boom")
  in
  (match Eof_exec.Engine.run engine ~fuel:100 with
   | Eof_exec.Engine.Faulted _ -> ()
   | _ -> Alcotest.fail "expected fault");
  let log = Uart.drain (Board.uart board) in
  let contains needle =
    let nl = String.length needle and hl = String.length log in
    let rec go i = i + nl <= hl && (String.sub log i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "assert line" true (contains "ASSERTION FAILED: something odd");
  Alcotest.(check bool) "panic line" true (contains "KERNEL PANIC: boom");
  Alcotest.(check bool) "backtrace" true (contains "Level 1: a.c : f : 1")

(* Property: heap alloc/free in arbitrary interleavings preserves the
   block-tiling invariant. *)
let prop_heap_invariant =
  QCheck.Test.make ~name:"heap invariant under random alloc/free" ~count:100
    QCheck.(small_list (pair bool (int_bound 200)))
    (fun ops ->
      let _, h = make_heap () in
      let live = ref [] in
      List.iter
        (fun (is_alloc, n) ->
          if is_alloc || !live = [] then begin
            match Heap.alloc h (n + 1) with
            | Some a -> live := a :: !live
            | None -> ()
          end
          else begin
            match !live with
            | a :: rest ->
              live := rest;
              ignore (Heap.free h a : (unit, string) result)
            | [] -> ()
          end)
        ops;
      Heap.check h = Ok ())

let suite =
  [
    Alcotest.test_case "heap init validation" `Quick test_heap_init_validation;
    Alcotest.test_case "heap alloc/free/coalesce" `Quick test_heap_alloc_free;
    Alcotest.test_case "heap double free" `Quick test_heap_double_free;
    Alcotest.test_case "heap exhaustion" `Quick test_heap_exhaustion;
    Alcotest.test_case "heap corruption detected" `Quick test_heap_corruption_detected;
    Alcotest.test_case "heap lock" `Quick test_heap_lock;
    Alcotest.test_case "kobj lifecycle" `Quick test_kobj_lifecycle;
    QCheck_alcotest.to_alcotest first_of_kind_matches_sort;
    Alcotest.test_case "msgq fifo" `Quick test_msgq_fifo;
    Alcotest.test_case "msgq purge poisons" `Quick test_msgq_purge_poisons;
    Alcotest.test_case "sem bounds" `Quick test_sem_bounds;
    Alcotest.test_case "mutex ownership" `Quick test_mutex_ownership;
    Alcotest.test_case "event flags" `Quick test_event_flags;
    Alcotest.test_case "timer wheel" `Quick test_timer_wheel;
    Alcotest.test_case "mempool" `Quick test_mempool;
    Alcotest.test_case "sched priorities" `Quick test_sched_priorities;
    Alcotest.test_case "sched round robin" `Quick test_sched_round_robin;
    Alcotest.test_case "api table validation" `Quick test_api_table_validation;
    Alcotest.test_case "bad api table fails before any payload" `Quick
      test_api_table_fails_before_payloads;
    Alcotest.test_case "every boot has the validated shape" `Quick
      test_every_boot_has_validated_shape;
    Alcotest.test_case "panic/assert output" `Quick test_panic_and_assert_output;
    QCheck_alcotest.to_alcotest prop_heap_invariant;
  ]

let test_ramfs_roundtrip () =
  let _, h = make_heap ~size:8192 () in
  let fs = Ramfs.create ~heap:h ~max_files:4 ~max_file_bytes:512 in
  (match Ramfs.open_ fs ~path:"/log" ~create:false ~write:false with
   | Error e -> Alcotest.(check int64) "missing" Kerr.enoent e
   | Ok _ -> Alcotest.fail "opened missing file");
  let fd =
    match Ramfs.open_ fs ~path:"/log" ~create:true ~write:true with
    | Ok fd -> fd
    | Error _ -> Alcotest.fail "create"
  in
  (match Ramfs.write fs fd "hello " with Ok 6 -> () | _ -> Alcotest.fail "write 1");
  (match Ramfs.write fs fd "world" with Ok 5 -> () | _ -> Alcotest.fail "write 2");
  let rd =
    match Ramfs.open_ fs ~path:"/log" ~create:false ~write:false with
    | Ok fd -> fd
    | Error _ -> Alcotest.fail "reopen"
  in
  (match Ramfs.read fs rd ~max:6 with
   | Ok s -> Alcotest.(check string) "chunk 1" "hello " s
   | Error _ -> Alcotest.fail "read 1");
  (match Ramfs.read fs rd ~max:100 with
   | Ok s -> Alcotest.(check string) "chunk 2" "world" s
   | Error _ -> Alcotest.fail "read 2");
  (match Ramfs.read fs rd ~max:100 with
   | Ok "" -> ()
   | _ -> Alcotest.fail "eof");
  (match Ramfs.write fs rd "nope" with
   | Error e -> Alcotest.(check int64) "read-only" Kerr.eperm e
   | Ok _ -> Alcotest.fail "wrote through read-only fd")

let test_ramfs_limits_and_unlink () =
  let _, h = make_heap ~size:8192 () in
  let fs = Ramfs.create ~heap:h ~max_files:2 ~max_file_bytes:64 in
  let fd =
    match Ramfs.open_ fs ~path:"/a" ~create:true ~write:true with
    | Ok fd -> fd
    | Error _ -> Alcotest.fail "create"
  in
  (match Ramfs.write fs fd (String.make 100 'x') with
   | Error e -> Alcotest.(check int64) "file limit" Kerr.enospc e
   | Ok _ -> Alcotest.fail "over-limit write accepted");
  ignore (Ramfs.open_ fs ~path:"/b" ~create:true ~write:true : (Ramfs.fd, int64) result);
  (match Ramfs.open_ fs ~path:"/c" ~create:true ~write:true with
   | Error e -> Alcotest.(check int64) "file table full" Kerr.enospc e
   | Ok _ -> Alcotest.fail "third file accepted");
  (* Unlink frees the slot and stales the descriptor. *)
  (match Ramfs.unlink fs ~path:"/a" with Ok () -> () | Error _ -> Alcotest.fail "unlink");
  (match Ramfs.write fs fd "y" with
   | Error e -> Alcotest.(check int64) "stale fd" Kerr.enoent e
   | Ok _ -> Alcotest.fail "wrote through stale fd");
  (match Ramfs.open_ fs ~path:"/c" ~create:true ~write:true with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "slot not reclaimed");
  (match Ramfs.close fs fd with Ok () -> () | Error _ -> Alcotest.fail "close stale");
  match Ramfs.close fs fd with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "double close accepted"

let test_ramfs_heap_backed () =
  let _, h = make_heap ~size:2048 () in
  let fs = Ramfs.create ~heap:h ~max_files:4 ~max_file_bytes:4096 in
  let fd =
    match Ramfs.open_ fs ~path:"/big" ~create:true ~write:true with
    | Ok fd -> fd
    | Error _ -> Alcotest.fail "create"
  in
  (* Exhaust the heap through the filesystem. *)
  let rec fill n =
    if n > 100 then Alcotest.fail "never exhausted"
    else
      match Ramfs.write fs fd (String.make 128 'z') with
      | Ok _ -> fill (n + 1)
      | Error e -> Alcotest.(check int64) "heap exhaustion surfaces" Kerr.enospc e
  in
  fill 0;
  (* Unlinking returns the storage. *)
  (match Ramfs.unlink fs ~path:"/big" with Ok () -> () | Error _ -> Alcotest.fail "unlink");
  Alcotest.(check bool) "heap recovered" true (Heap.alloc h 256 <> None)

let suite =
  suite
  @ [
      Alcotest.test_case "ramfs roundtrip" `Quick test_ramfs_roundtrip;
      Alcotest.test_case "ramfs limits/unlink" `Quick test_ramfs_limits_and_unlink;
      Alcotest.test_case "ramfs heap-backed" `Quick test_ramfs_heap_backed;
    ]

(* The kernel's task and software-timer table sizes. *)
let max_tasks = 64

let max_timers = 64

let test_task_and_timer_tables_bounded () =
  let reg = Kobj.create () in
  let wheel = Swtimer.create_wheel () in
  let sched = Sched.create ~reg ~wheel in
  for _ = 1 to max_tasks do
    match Sched.spawn sched ~name:"t" ~priority:5 ~stack_size:512 ~body:(fun _ -> ()) with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "spawn under the cap rejected"
  done;
  (match Sched.spawn sched ~name:"overflow" ~priority:5 ~stack_size:512 ~body:(fun _ -> ()) with
   | Error e -> Alcotest.(check int64) "tcb table full" Kerr.enospc e
   | Ok _ -> Alcotest.fail "spawned past the table");
  for _ = 1 to max_timers do
    match
      Swtimer.create ~reg ~wheel ~name:"tm" ~kind:Swtimer.Oneshot ~period:1
        ~callback:(fun () -> ())
    with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "timer under the cap rejected"
  done;
  match
    Swtimer.create ~reg ~wheel ~name:"tm" ~kind:Swtimer.Oneshot ~period:1
      ~callback:(fun () -> ())
  with
  | Error e -> Alcotest.(check int64) "timer table full" Kerr.enospc e
  | Ok _ -> Alcotest.fail "created past the table"

let test_finished_tasks_reaped () =
  let reg = Kobj.create () in
  let wheel = Swtimer.create_wheel () in
  let sched = Sched.create ~reg ~wheel in
  (* Churn far past the cap: finishing tasks must free their slots. *)
  for i = 1 to 3 * max_tasks do
    match
      Sched.spawn sched ~name:(Printf.sprintf "t%d" i) ~priority:5 ~stack_size:512
        ~body:(fun _ -> ())
    with
    | Ok obj ->
      (match Sched.of_obj obj with Some tcb -> Sched.finish tcb | None -> ())
    | Error _ -> Alcotest.fail "reaping failed to free slots"
  done

(* Property: msgq behaves as a bounded FIFO of fixed-size slots. *)
let prop_msgq_fifo =
  QCheck.Test.make ~name:"msgq is a bounded fifo" ~count:100
    QCheck.(small_list (option (string_of_size Gen.(0 -- 8))))
    (fun ops ->
      let _, h = make_heap () in
      let reg = Kobj.create () in
      match Msgq.create ~reg ~heap:h ~name:"q" ~capacity:3 ~item_size:4 with
      | Error _ -> false
      | Ok obj ->
        let q = Option.get (Msgq.of_obj obj) in
        let model = Queue.create () in
        let pad s =
          if String.length s >= 4 then String.sub s 0 4
          else s ^ String.make (4 - String.length s) '\000'
        in
        List.for_all
          (fun op ->
            match op with
            | Some msg ->
              (* send *)
              (match Msgq.send q msg with
               | Ok () ->
                 Queue.push (pad msg) model;
                 Queue.length model <= 3
               | Error _ -> Queue.length model = 3)
            | None ->
              (* recv *)
              (match Msgq.recv q with
               | Ok got -> (not (Queue.is_empty model)) && Queue.pop model = got
               | Error _ -> Queue.is_empty model))
          ops)

let suite =
  suite
  @ [
      Alcotest.test_case "task/timer tables bounded" `Quick
        test_task_and_timer_tables_bounded;
      Alcotest.test_case "finished tasks reaped" `Quick test_finished_tasks_reaped;
      QCheck_alcotest.to_alcotest prop_msgq_fifo;
    ]

let test_workq_semantics () =
  let wq = Workq.create ~drain_per_tick:2 in
  let log = ref [] in
  let a = Workq.make_item (fun () -> log := "a" :: !log) in
  let b = Workq.make_item (fun () -> log := "b" :: !log) in
  let c = Workq.make_item (fun () -> log := "c" :: !log) in
  Alcotest.(check bool) "submit a" true (Workq.submit wq a);
  Alcotest.(check bool) "double submit rejected" false (Workq.submit wq a);
  ignore (Workq.submit wq b : bool);
  ignore (Workq.submit wq c : bool);
  Alcotest.(check int) "pending" 3 (Workq.pending wq);
  Alcotest.(check int) "budgeted drain" 2 (Workq.drain_tick wq);
  Alcotest.(check (list string)) "fifo order" [ "b"; "a" ] !log;
  (* a has run, so it can be resubmitted. *)
  Alcotest.(check bool) "resubmit after run" true (Workq.submit wq a);
  Alcotest.(check int) "second drain" 2 (Workq.drain_tick wq);
  Alcotest.(check int) "executed total" 4 (List.length !log);
  Alcotest.(check int) "drained dry" 0 (Workq.drain_tick wq)

let suite = suite @ [ Alcotest.test_case "workq semantics" `Quick test_workq_semantics ]
