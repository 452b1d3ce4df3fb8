open Eof_hw
open Eof_rtos
open Oscommon
module Instr = Eof_rtos.Instr

(* Per-boot state for the k_heap and msgq bug mechanics. *)
type kheap = {
  arena : Heap.t option;  (* None = the broken k_heap_init result (bug #4) *)
  req_size : int;
  mutable blocks : int list;  (* outstanding payload addresses *)
}

type Kobj.payload += Kheap of kheap

type Kobj.payload += Kheap_block of { kheap_handle : int; addr : int }

type Kobj.payload += Work_item of int

let install (ctx : Osbuild.ctx) =
  let reg = ctx.reg in
  let panic = ctx.panic in
  let i_thread = ctx.instr "zephyr/thread" in
  let i_kheap = ctx.instr "zephyr/kheap" in
  let i_msgq = ctx.instr "zephyr/msgq" in
  let i_sem = ctx.instr "zephyr/sem" in
  let i_event = ctx.instr "zephyr/event" in
  let i_timer = ctx.instr "zephyr/timer" in
  let i_json = ctx.instr "zephyr/json" in
  let i_sys = ctx.instr "zephyr/sys" in
  let i_work = ctx.instr "zephyr/work" in
  (* The system work queue, drained from the kernel tick; work items
     post a completion bit to the oldest event group. *)
  let workq = Workq.create ~drain_per_tick:2 in
  let work_items = Hashtbl.create 8 in
  let next_work = ref 0 in
  (match
     Swtimer.create ~reg ~wheel:ctx.wheel ~name:"sysworkq" ~kind:Swtimer.Periodic ~period:1
       ~callback:(fun () -> ignore (Workq.drain_tick workq : int))
   with
   | Ok obj -> (match Swtimer.of_obj obj with Some tm -> Swtimer.start tm | None -> ())
   | Error _ -> ());
  (* The msgq bookkeeping that k_msgq_purge fails to reset (bug #2). *)
  let msgq_cached_count : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let entry name args ret ~weight ~doc handler =
    { Api.name; args; ret; doc; weight; handler }
  in
  let lookup kind h = Kobj.lookup_active reg h ~kind in

  (* --- threads ------------------------------------------------------ *)
  let k_thread_create args =
    let* prio = Api.get_int args 0 in
    let* stack = Api.get_int args 1 in
    let* flavor = Api.get_int args 2 in
    Instr.cmp i_thread 0 prio 16L;
    Instr.cmp i_thread 1 stack 1024L;
    let* obj =
      spawn_worker ctx ~name:"zthread" ~priority:(clamp_int prio)
        ~stack_size:(clamp_int stack) ~flavor:(clamp_int flavor)
    in
    Instr.edge i_thread 2;
    Api.created ~kind:"thread" ~handle:obj.Kobj.handle
  in
  let with_task h f =
    let* obj = lookup "task" h in
    match Sched.of_obj obj with None -> Api.status Kerr.einval | Some tcb -> f tcb
  in
  let k_thread_suspend args =
    let* h = Api.get_res args 0 in
    with_task h (fun tcb ->
        Instr.edge i_thread 3;
        Sched.suspend tcb;
        Api.ok_status)
  in
  let k_thread_resume args =
    let* h = Api.get_res args 0 in
    with_task h (fun tcb ->
        Instr.edge i_thread 4;
        Sched.resume tcb;
        Api.ok_status)
  in
  let k_thread_priority_set args =
    let* h = Api.get_res args 0 in
    let* prio = Api.get_int args 1 in
    with_task h (fun tcb ->
        Instr.cmp i_thread 5 prio 16L;
        to_status (Sched.set_priority tcb (clamp_int prio)))
  in
  let k_thread_abort args =
    let* h = Api.get_res args 0 in
    with_task h (fun tcb ->
        Instr.edge i_thread 6;
        Sched.finish tcb;
        (match Kobj.lookup reg h with Some obj -> Kobj.delete obj | None -> ());
        Api.ok_status)
  in
  let k_sleep args =
    let* ms = Api.get_int args 0 in
    let ms = max 0 (min 50 (clamp_int ms)) in
    Instr.cmp_i i_thread 7 ms 10;
    pump ctx ms;
    Api.ok_status
  in
  let k_yield _args =
    Instr.edge i_thread 8;
    pump ctx 1;
    Api.ok_status
  in

  (* --- k_heap ------------------------------------------------------- *)
  let k_heap_init args =
    let* size = Api.get_int args 0 in
    let size = clamp_int size in
    Instr.cmp_i i_kheap 0 size 64;
    if size < 0 || size > 4096 then Api.status Kerr.einval
    else begin
      let rounded = (size + 7) / 8 * 8 in
      match Heap.alloc ctx.heap (max 8 rounded) with
      | None ->
        Instr.edge i_kheap 1;
        Api.status Kerr.enomem
      | Some base ->
        (* BUG #4 (confirmed): the result of the arena initialisation is
           not checked; a region below the minimum block size registers a
           "ready" heap whose free list was never written. *)
        let arena =
          match Heap.init ~mem:(Board.ram ctx.board) ~base ~size:rounded with
          | Ok arena ->
            Instr.edge i_kheap 2;
            Some arena
          | Error _ ->
            Instr.edge i_kheap 3;
            None
        in
        let obj =
          Kobj.register reg ~kind:"kheap" ~name:"kheap"
            (Kheap { arena; req_size = size; blocks = [] })
        in
        Api.created ~kind:"kheap" ~handle:obj.Kobj.handle
    end
  in
  let with_kheap h f =
    let* obj = lookup "kheap" h in
    match obj.Kobj.payload with
    | Kheap kh -> f obj kh
    | _ -> Api.status Kerr.einval
  in
  let k_heap_alloc args =
    let* h = Api.get_res args 0 in
    let* size = Api.get_int args 1 in
    with_kheap h (fun obj kh ->
        Instr.cmp i_kheap 4 size 64L;
        match kh.arena with
        | None ->
          (* Touching the never-initialised free list. *)
          Panic.panic panic
            ~backtrace:
              [
                "lib/heap/heap.c : sys_heap_alloc : 311";
                "kernel/kheap.c : k_heap_alloc : 119";
              ]
            (Printf.sprintf
               "unaligned free-list head in k_heap region of %d bytes (k_heap_init \
                result unchecked)"
               kh.req_size)
        | Some arena ->
          (match Heap.alloc arena (clamp_int size) with
           | None ->
             Instr.edge i_kheap 5;
             Api.status Kerr.enomem
           | Some addr ->
             Instr.edge i_kheap 6;
             kh.blocks <- addr :: kh.blocks;
             let blk =
               Kobj.register reg ~kind:"kheap_block" ~name:"zblock"
                 (Kheap_block { kheap_handle = obj.Kobj.handle; addr })
             in
             Api.created ~kind:"kheap_block" ~handle:blk.Kobj.handle))
  in
  let k_heap_free args =
    let* h = Api.get_res args 0 in
    let* obj = lookup "kheap_block" h in
    (match obj.Kobj.payload with
     | Kheap_block { kheap_handle; addr } ->
       with_kheap kheap_handle (fun _ kh ->
           match kh.arena with
           | None -> Api.status Kerr.einval
           | Some arena ->
             Instr.edge i_kheap 7;
             Kobj.delete obj;
             kh.blocks <- List.filter (fun a -> a <> addr) kh.blocks;
             (match Heap.free arena addr with
              | Ok () -> Api.ok_status
              | Error _ ->
                Instr.edge i_kheap 8;
                Api.status Kerr.einval))
     | _ -> Api.status Kerr.einval)
  in
  let sys_heap_stress args =
    let* h = Api.get_res args 0 in
    let* bytes = Api.get_int args 1 in
    let* flags = Api.get_int args 2 in
    with_kheap h (fun _ kh ->
        match kh.arena with
        | None -> Api.status Kerr.einval
        | Some arena ->
          let bytes = clamp_int bytes in
          let aligned = Int64.logand flags 1L <> 0L in
          Instr.cmp_i i_kheap 9 bytes (Heap.size arena);
          Instr.cmp i_kheap 10 flags 0L;
          if bytes > Heap.size arena && aligned then begin
            (* BUG #1: the aligned stress path trusts its byte budget and
               walks past the arena, shearing a block header. *)
            Instr.edge i_kheap 11;
            Eof_exec.Target.cycles 50;
            Memory.write_u32 (Board.ram ctx.board) (Heap.base arena) 0xDEADBEEFl;
            (match Heap.alloc arena 8 with
             | _ -> Api.ok_status
             (* unreachable: the corrupted walk faults first *))
          end
          else begin
            (* Honest stress: bounded alloc/free churn. *)
            let rounds = min 16 (max 1 (bytes / 64)) in
            Instr.cmp_i i_kheap 12 rounds 8;
            let held = ref [] in
            for _ = 1 to rounds do
              match Heap.alloc arena 24 with
              | Some a -> held := a :: !held
              | None -> ()
            done;
            List.iter (fun a -> ignore (Heap.free arena a : (unit, string) result)) !held;
            Api.ok_status
          end)
  in

  (* --- msgq --------------------------------------------------------- *)
  let k_msgq_create args =
    let* capacity = Api.get_int args 0 in
    let* item_size = Api.get_int args 1 in
    Instr.cmp i_msgq 0 capacity 8L;
    Instr.cmp i_msgq 1 item_size 16L;
    let* obj =
      Msgq.create ~reg ~heap:ctx.heap ~name:"zmsgq" ~capacity:(clamp_int capacity)
        ~item_size:(clamp_int item_size)
    in
    Hashtbl.replace msgq_cached_count obj.Kobj.handle 0;
    Api.created ~kind:"msgq" ~handle:obj.Kobj.handle
  in
  let with_msgq h f =
    let* obj = lookup "msgq" h in
    match Msgq.of_obj obj with None -> Api.status Kerr.einval | Some q -> f obj q
  in
  let k_msgq_put args =
    let* h = Api.get_res args 0 in
    let* data = Api.get_buf args 1 in
    with_msgq h (fun obj q ->
        Instr.cmp_i i_msgq 2 (String.length data) 16;
        match Msgq.send q data with
        | Ok () ->
          Instr.edge i_msgq 3;
          Hashtbl.replace msgq_cached_count obj.Kobj.handle
            (1 + Option.value ~default:0 (Hashtbl.find_opt msgq_cached_count obj.Kobj.handle));
          Api.ok_status
        | Error e ->
          Instr.edge i_msgq 4;
          Api.status e)
  in
  let z_impl_k_msgq_get args =
    let* h = Api.get_res args 0 in
    with_msgq h (fun obj q ->
        let cached =
          Option.value ~default:0 (Hashtbl.find_opt msgq_cached_count obj.Kobj.handle)
        in
        Instr.cmp_i i_msgq 5 cached (Msgq.count q);
        if q.Msgq.purged && cached > 0 then
          (* BUG #2 (confirmed): purge dropped the ring but the cached
             element count says data is pending; the get path follows the
             dangling ring pointer. *)
          Panic.panic panic
            ~backtrace:
              [
                "kernel/msg_q.c : z_impl_k_msgq_get : 204";
                "kernel/msg_q.c : k_msgq_get : 161";
              ]
            "dangling ring buffer dereference after k_msgq_purge"
        else
          match Msgq.recv q with
          | Ok _msg ->
            Instr.edge i_msgq 6;
            Hashtbl.replace msgq_cached_count obj.Kobj.handle (max 0 (cached - 1));
            Api.ok_status
          | Error e ->
            Instr.edge i_msgq 7;
            Api.status e)
  in
  let k_msgq_purge args =
    let* h = Api.get_res args 0 in
    with_msgq h (fun _obj q ->
        Instr.edge i_msgq 8;
        (* The bug: the cached count table entry is NOT reset here. *)
        Msgq.purge q;
        Api.ok_status)
  in
  let k_msgq_num_used args =
    let* h = Api.get_res args 0 in
    with_msgq h (fun _obj q ->
        Instr.cmp_i i_msgq 9 (Msgq.count q) 0;
        Api.status (Int64.of_int (Msgq.count q)))
  in

  (* --- semaphores --------------------------------------------------- *)
  let k_sem_init args =
    let* initial = Api.get_int args 0 in
    let* limit = Api.get_int args 1 in
    Instr.cmp i_sem 0 initial 4L;
    Instr.cmp i_sem 3 limit 8L;
    let* obj =
      Sem.create ~reg ~name:"zsem" ~initial:(clamp_int initial) ~max_count:(clamp_int limit)
    in
    Api.created ~kind:"sem" ~handle:obj.Kobj.handle
  in
  let with_sem h f =
    let* obj = lookup "sem" h in
    match Sem.of_obj obj with None -> Api.status Kerr.einval | Some s -> f s
  in
  let k_sem_take args =
    let* h = Api.get_res args 0 in
    with_sem h (fun s ->
        Instr.cmp_i i_sem 1 (Sem.count s) 0;
        to_status (Sem.take s))
  in
  let k_sem_give args =
    let* h = Api.get_res args 0 in
    with_sem h (fun s ->
        Instr.cmp_i i_sem 2 (Sem.count s) 0;
        to_status (Sem.give s))
  in

  (* --- events ------------------------------------------------------- *)
  let k_event_create _args =
    Instr.edge i_event 0;
    let obj = Event.create ~reg ~name:"zevent" in
    Api.created ~kind:"event" ~handle:obj.Kobj.handle
  in
  let with_event h f =
    let* obj = lookup "event" h in
    match Event.of_obj obj with None -> Api.status Kerr.einval | Some e -> f e
  in
  let k_event_post args =
    let* h = Api.get_res args 0 in
    let* bits = Api.get_int args 1 in
    with_event h (fun e ->
        Instr.cmp i_event 1 bits 0xFF00L;
        Event.send e (clamp_int bits);
        Api.ok_status)
  in
  let k_event_wait args =
    let* h = Api.get_res args 0 in
    let* mask = Api.get_int args 1 in
    let* opts = Api.get_int args 2 in
    with_event h (fun e ->
        let all = Int64.logand opts 1L <> 0L in
        let clear = Int64.logand opts 2L <> 0L in
        Instr.cmp i_event 2 mask 0xFFL;
        Instr.cmp i_event 3 opts 0L;
        match Event.recv e ~mask:(clamp_int mask) ~all ~clear with
        | Ok matched ->
          Instr.edge i_event 4;
          Api.status (Int64.of_int matched)
        | Error e ->
          Instr.edge i_event 5;
          Api.status e)
  in

  (* --- timers ------------------------------------------------------- *)
  let k_timer_create args =
    let* period = Api.get_int args 0 in
    let* kind_flag = Api.get_int args 1 in
    let kind = if Int64.logand kind_flag 1L <> 0L then Swtimer.Periodic else Swtimer.Oneshot in
    Instr.cmp i_timer 0 period 5L;
    let callback () =
      (* Timer context: feed the oldest event group, as a driver ISR
         bottom half would. *)
      match Kobj.first_of_kind reg "event" with
      | Some obj ->
        (match Event.of_obj obj with Some e -> Event.send e 0x100 | None -> ())
      | None -> ()
    in
    let* obj =
      Swtimer.create ~reg ~wheel:ctx.wheel ~name:"ztimer" ~kind ~period:(clamp_int period)
        ~callback
    in
    Api.created ~kind:"timer" ~handle:obj.Kobj.handle
  in
  let with_timer h f =
    let* obj = lookup "timer" h in
    match Swtimer.of_obj obj with None -> Api.status Kerr.einval | Some tm -> f tm
  in
  let k_timer_start args =
    let* h = Api.get_res args 0 in
    with_timer h (fun tm ->
        Instr.edge i_timer 1;
        Swtimer.start tm;
        Api.ok_status)
  in
  let k_timer_stop args =
    let* h = Api.get_res args 0 in
    with_timer h (fun tm ->
        Instr.edge i_timer 2;
        Swtimer.stop tm;
        Api.ok_status)
  in

  (* --- JSON middleware ---------------------------------------------- *)
  let json_parse args =
    let* buf = Api.get_buf args 0 in
    match Eof_apps.Json.parse ~instr:i_json buf with
    | Ok _ -> Api.ok_status
    | Error _ -> Api.status Kerr.einval
  in
  let encode_or_panic doc =
    match Eof_apps.Json.encode ~instr:i_json ~max_depth:8 doc with
    | Ok _ -> Api.ok_status
    | Error `Too_deep ->
      (* BUG #3 (confirmed): the encoder's fixed descend stack overflows
         instead of propagating the depth error. *)
      Panic.panic panic
        ~backtrace:
          [
            "lib/utils/json.c : json_obj_encode : 733";
            "lib/utils/json.c : encode : 684";
          ]
        "encoder stack overflow in json_obj_encode (nesting depth > 8)"
  in
  let json_obj_encode args =
    let* buf = Api.get_buf args 0 in
    match Eof_apps.Json.parse ~instr:i_json buf with
    | Error _ -> Api.status Kerr.einval
    | Ok doc -> encode_or_panic doc
  in
  let syz_json_deep_encode args =
    let* depth = Api.get_int args 0 in
    let depth = max 1 (min 12 (clamp_int depth)) in
    let rec build d =
      if d <= 0 then Eof_apps.Json.Num 1.0
      else Eof_apps.Json.Obj [ ("nested", build (d - 1)) ]
    in
    encode_or_panic (build depth)
  in

  (* --- work queue ---------------------------------------------------- *)
  let k_work_init args =
    let* bit = Api.get_int args 0 in
    Instr.cmp i_work 0 bit 8L;
    let id = !next_work in
    incr next_work;
    let bit = clamp_int bit land 0xFF in
    let item =
      Workq.make_item (fun () ->
          Instr.edge i_work 1;
          match Kobj.first_of_kind reg "event" with
          | Some obj ->
            (match Event.of_obj obj with
             | Some e -> Event.send e (1 lsl (bit land 0xF))
             | None -> ())
          | None -> Instr.edge i_work 2)
    in
    Hashtbl.replace work_items id item;
    let obj = Kobj.register reg ~kind:"work" ~name:"kwork" (Work_item id) in
    Api.created ~kind:"work" ~handle:obj.Kobj.handle
  in
  let k_work_submit args =
    let* h = Api.get_res args 0 in
    let* obj = lookup "work" h in
    match obj.Kobj.payload with
    | Work_item id ->
      (match Hashtbl.find_opt work_items id with
       | None -> Api.status Kerr.einval
       | Some item ->
         Instr.cmp_i i_work 3 (Workq.pending workq) 0;
         if Workq.submit workq item then begin
           Instr.edge i_work 4;
           Api.ok_status
         end
         else begin
           (* already pending: Zephyr returns 0 without requeueing *)
           Instr.edge i_work 5;
           Api.status Kerr.ebusy
         end)
    | _ -> Api.status Kerr.einval
  in
  let k_work_pending _args =
    Instr.cmp_i i_work 6 (Workq.pending workq) 1;
    Api.status (Int64.of_int (Workq.pending workq))
  in

  (* --- sys ---------------------------------------------------------- *)
  let k_uptime_get _args =
    Instr.edge i_sys 0;
    Api.status (Int64.of_int (Sched.ticks ctx.sched))
  in
  let printk args =
    let* s = Api.get_str args 0 in
    Instr.cmp_i i_sys 1 (String.length s) 16;
    Klog.info ~os:ctx.os_name s;
    Api.ok_status
  in

    let staged_entries =
    Statemach.entries ctx ~instr:(ctx.instr "zephyr/pipe") ~prefix:"zpipe"
      ~resource:"i2c_target" ~salt:48
  in
  let staged_entries =
    staged_entries
    @ Statemach.entries ctx ~instr:(ctx.instr "zephyr/spi") ~prefix:"zspi"
        ~resource:"spi_dev" ~salt:65
  in
  let staged_entries =
    staged_entries
    @ Statemach.entries ctx ~instr:(ctx.instr "zephyr/adc") ~prefix:"zadc"
        ~resource:"adc_dev" ~salt:110
  in

  let staged_entries =
    staged_entries @ install_irq ctx ~instr:(ctx.instr "zephyr/irq") ~prefix:"gpio"
  in

  Api.make_table ~os:"Zephyr"
    ([
      entry "k_thread_create"
        [ ("priority", Api.A_int { min = 0L; max = 31L });
          ("stack_size", Api.A_int { min = 128L; max = 8192L });
          ("flavor", Api.A_int { min = 0L; max = 7L }) ]
        (`Resource "thread") ~weight:3 ~doc:"Create and start a thread" k_thread_create;
      entry "k_thread_suspend" [ ("thread", Api.A_res "thread") ] `Status ~weight:1
        ~doc:"Suspend a thread" k_thread_suspend;
      entry "k_thread_resume" [ ("thread", Api.A_res "thread") ] `Status ~weight:1
        ~doc:"Resume a suspended thread" k_thread_resume;
      entry "k_thread_priority_set"
        [ ("thread", Api.A_res "thread"); ("priority", Api.A_int { min = 0L; max = 31L }) ]
        `Status ~weight:1 ~doc:"Change a thread's priority" k_thread_priority_set;
      entry "k_thread_abort" [ ("thread", Api.A_res "thread") ] `Status ~weight:1
        ~doc:"Abort a thread" k_thread_abort;
      entry "k_sleep" [ ("ms", Api.A_int { min = 0L; max = 50L }) ] `Status ~weight:2
        ~doc:"Sleep, letting other threads and timers run" k_sleep;
      entry "k_yield" [] `Status ~weight:1 ~doc:"Yield the CPU" k_yield;
      entry "k_heap_init" [ ("size", Api.A_int { min = 0L; max = 4096L }) ]
        (`Resource "kheap") ~weight:3 ~doc:"Initialise a k_heap arena" k_heap_init;
      entry "k_heap_alloc"
        [ ("heap", Api.A_res "kheap"); ("size", Api.A_int { min = 0L; max = 2048L }) ]
        (`Resource "kheap_block") ~weight:3 ~doc:"Allocate from a k_heap" k_heap_alloc;
      entry "k_heap_free" [ ("block", Api.A_res "kheap_block") ] `Status ~weight:2
        ~doc:"Free a k_heap block" k_heap_free;
      entry "sys_heap_stress"
        [ ("heap", Api.A_res "kheap");
          ("bytes", Api.A_int { min = 0L; max = 131072L });
          ("flags", Api.A_flags [ ("align", 1L); ("churn", 2L) ]) ]
        `Status ~weight:2 ~doc:"Exercise the heap with an alloc/free storm" sys_heap_stress;
      entry "k_msgq_create"
        [ ("capacity", Api.A_int { min = 1L; max = 64L });
          ("item_size", Api.A_int { min = 1L; max = 128L }) ]
        (`Resource "msgq") ~weight:3 ~doc:"Create a message queue" k_msgq_create;
      entry "k_msgq_put"
        [ ("queue", Api.A_res "msgq"); ("data", Api.A_buf { max_len = 128 }) ]
        `Status ~weight:3 ~doc:"Enqueue a message" k_msgq_put;
      entry "z_impl_k_msgq_get" [ ("queue", Api.A_res "msgq") ] `Status ~weight:3
        ~doc:"Dequeue a message" z_impl_k_msgq_get;
      entry "k_msgq_purge" [ ("queue", Api.A_res "msgq") ] `Status ~weight:2
        ~doc:"Discard all queued messages" k_msgq_purge;
      entry "k_msgq_num_used" [ ("queue", Api.A_res "msgq") ] `Status ~weight:1
        ~doc:"Count queued messages" k_msgq_num_used;
      entry "k_sem_init"
        [ ("initial", Api.A_int { min = 0L; max = 10L });
          ("limit", Api.A_int { min = 1L; max = 10L }) ]
        (`Resource "sem") ~weight:2 ~doc:"Initialise a semaphore" k_sem_init;
      entry "k_sem_take" [ ("sem", Api.A_res "sem") ] `Status ~weight:2
        ~doc:"Take a semaphore (non-blocking)" k_sem_take;
      entry "k_sem_give" [ ("sem", Api.A_res "sem") ] `Status ~weight:2
        ~doc:"Give a semaphore" k_sem_give;
      entry "k_event_create" [] (`Resource "event") ~weight:2 ~doc:"Create an event group"
        k_event_create;
      entry "k_event_post"
        [ ("event", Api.A_res "event"); ("bits", Api.A_int { min = 0L; max = 65535L }) ]
        `Status ~weight:2 ~doc:"Post event bits" k_event_post;
      entry "k_event_wait"
        [ ("event", Api.A_res "event");
          ("mask", Api.A_int { min = 1L; max = 65535L });
          ("opts", Api.A_flags [ ("all", 1L); ("clear", 2L) ]) ]
        `Status ~weight:2 ~doc:"Wait for event bits (non-blocking poll)" k_event_wait;
      entry "k_timer_create"
        [ ("period", Api.A_int { min = 1L; max = 20L });
          ("kind", Api.A_flags [ ("periodic", 1L) ]) ]
        (`Resource "timer") ~weight:2 ~doc:"Create a software timer" k_timer_create;
      entry "k_timer_start" [ ("timer", Api.A_res "timer") ] `Status ~weight:2
        ~doc:"Start a timer" k_timer_start;
      entry "k_timer_stop" [ ("timer", Api.A_res "timer") ] `Status ~weight:1
        ~doc:"Stop a timer" k_timer_stop;
      entry "json_parse" [ ("text", Api.A_buf { max_len = 256 }) ] `Status ~weight:2
        ~doc:"Parse a JSON document" json_parse;
      entry "json_obj_encode" [ ("text", Api.A_buf { max_len = 256 }) ] `Status ~weight:2
        ~doc:"Round-trip a JSON document through the encoder" json_obj_encode;
      entry "syz_json_deep_encode" [ ("depth", Api.A_int { min = 1L; max = 12L }) ] `Status
        ~weight:2 ~doc:"Pseudo-syscall: build and encode a nested JSON object"
        syz_json_deep_encode;
      entry "k_work_init" [ ("bit", Api.A_int { min = 0L; max = 15L }) ]
        (`Resource "work") ~weight:2 ~doc:"Initialise a work item" k_work_init;
      entry "k_work_submit" [ ("work", Api.A_res "work") ] `Status ~weight:3
        ~doc:"Submit a work item to the system work queue" k_work_submit;
      entry "k_work_pending" [] `Status ~weight:1 ~doc:"Pending work count" k_work_pending;
      entry "k_uptime_get" [] `Status ~weight:1 ~doc:"Read the kernel tick counter"
        k_uptime_get;
      entry "printk" [ ("text", Api.A_str { max_len = 64 }) ] `Status ~weight:1
        ~doc:"Print to the kernel console" printk;
    ]
     @ staged_entries)


let spec =
  {
    Osbuild.os_name = "Zephyr";
    version = "143b14b";
    base_kernel_bytes = 82_000;
    modules =
      [
        ("zephyr/thread", 24);
        ("zephyr/kheap", 32);
        ("zephyr/msgq", 24);
        ("zephyr/sem", 16);
        ("zephyr/event", 16);
        ("zephyr/timer", 16);
        ("zephyr/json", Eof_apps.Json.site_count);
        ("zephyr/sys", 16);
        ("zephyr/work", 12);
        ("zephyr/pipe", Statemach.site_count);
        ("zephyr/spi", Statemach.site_count);
        ("zephyr/adc", Statemach.site_count);
        ("zephyr/irq", Oscommon.irq_site_count);
      ];
    banner = "*** Booting Zephyr OS build v3.6.0-143b14b ***";
    kernel_patches = [];
    install;
  }
