open Eof_hw
open Eof_rtos
open Oscommon
module Instr = Eof_rtos.Instr

type smem_block = { addr : int; payload_size : int }

type Kobj.payload += Smem of smem_block

type Kobj.payload += Heap_block of { addr : int }

type service = { svc_handle : int; mutable svc_deleted : bool }

type Kobj.payload += Service of service

let install (ctx : Osbuild.ctx) =
  let reg = ctx.reg in
  let panic = ctx.panic in
  let heap = ctx.heap in
  let ram = Board.ram ctx.board in
  let i_thread = ctx.instr "rtt/thread" in
  let i_object = ctx.instr "rtt/object" in
  let i_service = ctx.instr "rtt/service" in
  let i_mempool = ctx.instr "rtt/mempool" in
  let i_heap = ctx.instr "rtt/heap" in
  let i_smem = ctx.instr "rtt/smem" in
  let i_ipc = ctx.instr "rtt/ipc" in
  let i_mq = ctx.instr "rtt/mq" in
  let i_serial = ctx.instr "rtt/serial" in
  let i_sal = ctx.instr "rtt/sal" in
  let i_timer = ctx.instr "rtt/timer" in
  let i_sys = ctx.instr "rtt/sys" in
  let entry name args ret ~weight ~doc handler =
    { Api.name; args; ret; doc; weight; handler }
  in
  let lookup kind h = Kobj.lookup_active reg h ~kind in

  (* Static object slots for rt_object_init (bug #8). *)
  let static_slots = Array.make 8 false in
  (* The kernel services list keeps nodes for unregistered services —
     the dangling-node state of bug #6. *)
  let services : service list ref = ref [] in

  (* The console serial device every rt_kprintf goes through. *)
  let console_obj = Eof_apps.Serial.create ~reg ~name:"uart0" ~open_flag:Eof_apps.Serial.flag_stream in
  let console_dev = Option.get (Eof_apps.Serial.of_obj console_obj) in
  let console_write s =
    ignore (Eof_apps.Serial.write ~panic ~instr:i_serial console_dev s : (int, int64) result)
  in
  let sal = Eof_apps.Sal.create ~reg ~instr:i_sal ~console:console_write in

  (* --- heap with _heap_lock (bug #9) -------------------------------- *)
  let heap_lock_or_panic ~from_timer () =
    match Heap.lock heap with
    | Ok () -> ()
    | Error `Already_locked ->
      Panic.panic panic
        ~backtrace:
          [
            "src/kservice.c : _heap_lock : 112";
            (if from_timer then "src/timer.c : rt_timer_check : 601"
             else "src/kservice.c : rt_malloc : 178");
          ]
        "_heap_lock re-entered from timer context"
  in
  let malloc_from_timer () =
    (* A driver timer callback allocating scratch memory. *)
    heap_lock_or_panic ~from_timer:true ();
    (match Heap.alloc heap 16 with
     | Some a -> ignore (Heap.free heap a : (unit, string) result)
     | None -> ());
    Heap.unlock heap
  in
  let rt_malloc args =
    let* size = Api.get_int args 0 in
    Instr.cmp i_heap 0 size 64L;
    let size = clamp_int size in
    if size < 0 || size > 8192 then Api.status Kerr.einval
    else begin
      heap_lock_or_panic ~from_timer:false ();
      let result = Heap.alloc heap size in
      Heap.unlock heap;
      match result with
      | None ->
        Instr.edge i_heap 1;
        Api.status Kerr.enomem
      | Some addr ->
        Instr.edge i_heap 2;
        let obj = Kobj.register reg ~kind:"rtblock" ~name:"rtblock" (Heap_block { addr }) in
        Api.created ~kind:"rtblock" ~handle:obj.Kobj.handle
    end
  in
  let rt_free args =
    let* h = Api.get_res args 0 in
    let* obj = lookup "rtblock" h in
    match obj.Kobj.payload with
    | Heap_block { addr } ->
      Instr.edge i_heap 3;
      heap_lock_or_panic ~from_timer:false ();
      (* The slow path: coalescing yields a tick with the lock held —
         which is when a timer-context allocation re-enters (bug #9). *)
      pump ctx 1;
      let result = Heap.free heap addr in
      Heap.unlock heap;
      Kobj.delete obj;
      (match result with
       | Ok () -> Api.ok_status
       | Error _ ->
         Instr.edge i_heap 4;
         Api.status Kerr.einval)
    | _ -> Api.status Kerr.einval
  in
  let rt_memheap_info _args =
    Instr.cmp_i i_heap 5 (Heap.used_bytes heap) (Heap.free_bytes heap);
    Api.status (Int64.of_int (Heap.free_bytes heap))
  in

  (* --- threads ------------------------------------------------------ *)
  let rt_thread_create args =
    let* prio = Api.get_int args 0 in
    let* stack = Api.get_int args 1 in
    let* flavor = Api.get_int args 2 in
    Instr.cmp i_thread 0 prio 10L;
    Instr.cmp i_thread 1 stack 512L;
    let* obj =
      spawn_worker ctx ~name:"rtthread" ~priority:(clamp_int prio)
        ~stack_size:(clamp_int stack) ~flavor:(clamp_int flavor)
    in
    (* RT-Thread threads start suspended until rt_thread_startup. *)
    (match Sched.of_obj obj with Some tcb -> Sched.suspend tcb | None -> ());
    Instr.edge i_thread 2;
    Api.created ~kind:"thread" ~handle:obj.Kobj.handle
  in
  let with_task h f =
    let* obj = lookup "task" h in
    match Sched.of_obj obj with None -> Api.status Kerr.einval | Some tcb -> f obj tcb
  in
  let rt_thread_startup args =
    let* h = Api.get_res args 0 in
    with_task h (fun _ tcb ->
        Instr.edge i_thread 3;
        Sched.resume tcb;
        Api.ok_status)
  in
  let rt_thread_delete args =
    let* h = Api.get_res args 0 in
    with_task h (fun obj tcb ->
        Instr.edge i_thread 4;
        Sched.finish tcb;
        Kobj.delete obj;
        Api.ok_status)
  in
  let rt_thread_mdelay args =
    let* ms = Api.get_int args 0 in
    let ms = max 0 (min 50 (clamp_int ms)) in
    Instr.cmp_i i_thread 5 ms 10;
    pump ctx ms;
    Api.ok_status
  in

  (* --- object subsystem (bugs #5, #8) ------------------------------- *)
  let rt_object_detach args =
    let* h = Api.get_res args 0 in
    let* obj = lookup "event" h in
    Instr.edge i_object 0;
    Kobj.detach obj;
    Api.ok_status
  in
  let hang_site = Instr.site_addr i_object 7 in
  let rt_object_get_type args =
    let* h = Api.get_res args 0 in
    match Kobj.lookup reg h with
    | None -> Api.status Kerr.enoent
    | Some obj ->
      Instr.cmp_i i_object 1 (Hashtbl.hash obj.Kobj.kind land 0xFF) 0;
      if obj.Kobj.state = Kobj.Detached then begin
        (* BUG #5: the type query walks the object container list, which
           no longer holds the detached object; the RT_ASSERT reports and
           the retry loop never terminates — a classic hang the PC-stall
           watchdog must catch. *)
        Panic.kassert panic false
          (Printf.sprintf "rt_object_get_type: object %d in container list" h);
        Eof_exec.Target.spin hang_site ~cycles_per:20
      end
      else begin
        Instr.edge i_object 2;
        Api.status 5L (* RT_Object_Class_Event *)
      end
  in
  let rt_object_init args =
    let* slot = Api.get_int args 0 in
    let slot = clamp_int slot in
    if slot < 0 || slot >= Array.length static_slots then Api.status Kerr.einval
    else begin
      Instr.cmp_i i_object 3 slot 0;
      (* BUG #8: double initialisation corrupts the container list; the
         assert reports it but the call still "succeeds". *)
      Panic.kassert panic
        (not static_slots.(slot))
        (Printf.sprintf "rt_object_init: static object slot %d already initialised" slot);
      static_slots.(slot) <- true;
      Instr.edge i_object 4;
      Api.ok_status
    end
  in

  (* --- kernel services list (bug #6) -------------------------------- *)
  let rt_service_register _args =
    Instr.edge i_service 0;
    let svc = { svc_handle = 0; svc_deleted = false } in
    let obj = Kobj.register reg ~kind:"service" ~name:"rtsvc" (Service svc) in
    let svc = { svc with svc_handle = obj.Kobj.handle } in
    obj.Kobj.payload <- Service svc;
    services := svc :: !services;
    Api.created ~kind:"service" ~handle:obj.Kobj.handle
  in
  let rt_service_unregister args =
    let* h = Api.get_res args 0 in
    let* obj = lookup "service" h in
    (match obj.Kobj.payload with
     | Service svc ->
       Instr.edge i_service 1;
       (* The node is marked dead and the object deleted, but the node
          stays threaded on the services list. *)
       svc.svc_deleted <- true;
       Kobj.delete obj;
       Api.ok_status
     | _ -> Api.status Kerr.einval)
  in
  let rt_service_poll _args =
    Instr.cmp_i i_service 2 (List.length !services) 0;
    (* BUG #6: rt_list_isempty dereferences each node's list head; a
       node whose service was unregistered is a dangling pointer. *)
    List.iter
      (fun svc ->
        if svc.svc_deleted then
          Panic.panic panic
            ~backtrace:
              [
                "include/rtservice.h : rt_list_isempty : 144";
                "src/components.c : rt_service_poll : 88";
              ]
            (Printf.sprintf "dangling service-list node (handle %d)" svc.svc_handle)
        else Instr.edge i_service 3)
      !services;
    Api.ok_status
  in

  (* --- memory pools (bug #7) ---------------------------------------- *)
  let rt_mp_create args =
    let* block_size = Api.get_int args 0 in
    let* block_count = Api.get_int args 1 in
    Instr.cmp i_mempool 0 block_size 16L;
    Instr.cmp i_mempool 1 block_count 4L;
    let block_size = clamp_int block_size in
    let block_count = clamp_int block_count in
    if block_size < 0 || block_size > 128 || block_count < 1 || block_count > 16 then
      Api.status Kerr.einval
    else
      (* BUG latent half of #7: geometry is NOT validated, so a
         zero-byte block size creates a pool with stride 0. *)
      let* obj =
        Mempool.create_unchecked ~reg ~heap ~name:"rtmp" ~block_size ~block_count
      in
      Api.created ~kind:"mempool" ~handle:obj.Kobj.handle
  in
  let with_pool h f =
    let* obj = lookup "mempool" h in
    match Mempool.of_obj obj with None -> Api.status Kerr.einval | Some p -> f p
  in
  let rt_mp_alloc args =
    let* h = Api.get_res args 0 in
    with_pool h (fun pool ->
        Instr.cmp_i i_mempool 2 (Mempool.available pool) 0;
        (* BUG #7 fires inside the substrate on stride-0 pools. *)
        match Mempool.alloc pool with
        | Ok addr ->
          Instr.edge i_mempool 3;
          Api.status (Int64.of_int addr)
        | Error e ->
          Instr.edge i_mempool 4;
          Api.status e)
  in
  let rt_mp_free args =
    let* h = Api.get_res args 0 in
    let* addr = Api.get_int args 1 in
    with_pool h (fun pool ->
        Instr.edge i_mempool 5;
        to_status (Mempool.free_block pool (clamp_int addr)))
  in

  (* --- small memory blocks (bug #11) -------------------------------- *)
  let rt_smem_alloc args =
    let* size = Api.get_int args 0 in
    let size = clamp_int size in
    Instr.cmp_i i_smem 0 size 16;
    if size < 8 || size > 64 then Api.status Kerr.einval
    else begin
      match Heap.alloc heap size with
      | None -> Api.status Kerr.enomem
      | Some addr ->
        Instr.edge i_smem 1;
        let payload_size = (size + 7) / 8 * 8 in
        let obj =
          Kobj.register reg ~kind:"smem" ~name:"smem" (Smem { addr; payload_size })
        in
        Api.created ~kind:"smem" ~handle:obj.Kobj.handle
    end
  in
  let rt_smem_setname args =
    let* h = Api.get_res args 0 in
    let* name = Api.get_str args 1 in
    let* obj = lookup "smem" h in
    match obj.Kobj.payload with
    | Smem { addr; payload_size } ->
      Instr.cmp_i i_smem 2 (String.length name) payload_size;
      (* BUG #11 (confirmed): the name is copied with no length check;
         a long name runs past the block payload into the next block's
         header, and the name-table update's heap walk then trips over
         the scribbled magic. *)
      Memory.write_bytes ram ~addr (Bytes.of_string name);
      obj.Kobj.name <- name;
      Instr.edge i_smem 3;
      ignore (Heap.used_bytes heap : int);
      Api.ok_status
    | _ -> Api.status Kerr.einval
  in
  let rt_smem_free args =
    let* h = Api.get_res args 0 in
    let* obj = lookup "smem" h in
    match obj.Kobj.payload with
    | Smem { addr; _ } ->
      Instr.edge i_smem 4;
      Kobj.delete obj;
      to_status
        (match Heap.free heap addr with Ok () -> Ok () | Error _ -> Error Kerr.einval)
    | _ -> Api.status Kerr.einval
  in

  (* --- IPC: events (bug #10), semaphores, mutexes ------------------- *)
  let rt_event_create _args =
    Instr.edge i_ipc 0;
    let obj = Event.create ~reg ~name:"rtevent" in
    Api.created ~kind:"event" ~handle:obj.Kobj.handle
  in
  let rt_event_delete args =
    let* h = Api.get_res args 0 in
    let* obj = lookup "event" h in
    Instr.edge i_ipc 1;
    Kobj.delete obj;
    Api.ok_status
  in
  let rt_event_send args =
    let* h = Api.get_res args 0 in
    let* bits = Api.get_int args 1 in
    (* BUG #10: the send path takes the object pointer without checking
       the container state; a deleted event's waiter list is junk. *)
    (match Kobj.lookup reg h with
     | None -> Api.status Kerr.enoent
     | Some obj when obj.Kobj.kind <> "event" -> Api.status Kerr.einval
     | Some obj ->
       if obj.Kobj.state = Kobj.Deleted then
         Panic.panic panic
           ~backtrace:
             [
               "src/ipc.c : rt_event_send : 1537";
               "src/ipc.c : _ipc_list_resume_all : 260";
             ]
           (Printf.sprintf "waiter-queue corruption: rt_event_send to deleted event %d" h)
       else begin
         match Event.of_obj obj with
         | None -> Api.status Kerr.einval
         | Some e ->
           Instr.cmp i_ipc 2 bits 0xFF00L;
           Event.send e (clamp_int bits);
           Api.ok_status
       end)
  in
  let rt_event_recv args =
    let* h = Api.get_res args 0 in
    let* mask = Api.get_int args 1 in
    let* opts = Api.get_int args 2 in
    let* obj = lookup "event" h in
    (match Event.of_obj obj with
     | None -> Api.status Kerr.einval
     | Some e ->
       Instr.cmp i_ipc 3 mask 0xFFL;
       let all = Int64.logand opts 1L <> 0L in
       let clear = Int64.logand opts 2L <> 0L in
       (match Event.recv e ~mask:(clamp_int mask) ~all ~clear with
        | Ok got ->
          Instr.edge i_ipc 4;
          Api.status (Int64.of_int got)
        | Error err ->
          Instr.edge i_ipc 5;
          Api.status err))
  in
  let rt_sem_create args =
    let* initial = Api.get_int args 0 in
    Instr.cmp i_ipc 6 initial 1L;
    let* obj =
      Sem.create ~reg ~name:"rtsem" ~initial:(clamp_int initial) ~max_count:16
    in
    Api.created ~kind:"sem" ~handle:obj.Kobj.handle
  in
  let with_sem h f =
    let* obj = lookup "sem" h in
    match Sem.of_obj obj with None -> Api.status Kerr.einval | Some s -> f s
  in
  let rt_sem_take args =
    let* h = Api.get_res args 0 in
    with_sem h (fun s ->
        Instr.cmp_i i_ipc 7 (Sem.count s) 0;
        to_status (Sem.take s))
  in
  let rt_sem_release args =
    let* h = Api.get_res args 0 in
    with_sem h (fun s ->
        Instr.edge i_ipc 8;
        to_status (Sem.give s))
  in
  let rt_mutex_create _args =
    Instr.edge i_ipc 9;
    let obj = Mutex.create ~reg ~name:"rtmutex" in
    Api.created ~kind:"mutex" ~handle:obj.Kobj.handle
  in
  let with_mutex h f =
    let* obj = lookup "mutex" h in
    match Mutex.of_obj obj with None -> Api.status Kerr.einval | Some m -> f m
  in
  let rt_mutex_take args =
    let* h = Api.get_res args 0 in
    with_mutex h (fun m ->
        Instr.edge i_ipc 10;
        to_status (Mutex.lock m ~owner:0))
  in
  let rt_mutex_release args =
    let* h = Api.get_res args 0 in
    with_mutex h (fun m ->
        Instr.edge i_ipc 11;
        to_status (Mutex.unlock m ~owner:0))
  in

  (* --- mail queues --------------------------------------------------- *)
  let rt_mq_create args =
    let* capacity = Api.get_int args 0 in
    let* msg_size = Api.get_int args 1 in
    Instr.cmp i_mq 0 capacity 8L;
    Instr.cmp i_mq 6 msg_size 32L;
    let* obj =
      Msgq.create ~reg ~heap ~name:"rtmq" ~capacity:(clamp_int capacity)
        ~item_size:(clamp_int msg_size)
    in
    Api.created ~kind:"msgq" ~handle:obj.Kobj.handle
  in
  let with_mq h f =
    let* obj = lookup "msgq" h in
    match Msgq.of_obj obj with None -> Api.status Kerr.einval | Some q -> f q
  in
  let rt_mq_send args =
    let* h = Api.get_res args 0 in
    let* data = Api.get_buf args 1 in
    with_mq h (fun q ->
        Instr.cmp_i i_mq 1 (String.length data) 16;
        match Msgq.send q data with
        | Ok () ->
          Instr.edge i_mq 2;
          Api.ok_status
        | Error e ->
          Instr.edge i_mq 3;
          Api.status e)
  in
  let rt_mq_recv args =
    let* h = Api.get_res args 0 in
    with_mq h (fun q ->
        match Msgq.recv q with
        | Ok _ ->
          Instr.edge i_mq 4;
          Api.ok_status
        | Error e ->
          Instr.edge i_mq 5;
          Api.status e)
  in

  (* --- serial device framework (bug #12) ---------------------------- *)
  let rt_serial_ctrl args =
    let* cmd = Api.get_int args 0 in
    Instr.cmp i_serial 4 cmd 0L;
    (match Int64.to_int (Int64.logand cmd 3L) with
     | 1 ->
       (* Detach the console: logging now holds a stale pointer. *)
       Instr.edge i_serial 5;
       Eof_apps.Serial.unregister console_dev;
       Api.ok_status
     | 2 ->
       Instr.edge i_serial 6;
       Eof_apps.Serial.reregister console_dev;
       Api.ok_status
     | _ -> Api.status Kerr.einval)
  in
  let rt_device_write args =
    let* data = Api.get_buf args 0 in
    Instr.cmp_i i_serial 7 (String.length data) 8;
    match Eof_apps.Serial.write ~panic ~instr:i_serial console_dev data with
    | Ok n -> Api.status (Int64.of_int n)
    | Error e -> Api.status e
  in

  (* --- socket abstraction layer (the case-study entry point) -------- *)
  let syz_create_bind_socket args =
    let* domain = Api.get_int args 0 in
    let* sock_type = Api.get_int args 1 in
    let* protocol = Api.get_int args 2 in
    let* port = Api.get_int args 3 in
    (* Pseudo-syscall from Figure 6: socket() then bind(). The socket()
       call logs over the console — the path that dies on a stale serial
       device (bug #12). *)
    let* obj =
      Eof_apps.Sal.socket sal ~domain:(clamp_int domain) ~sock_type:(clamp_int sock_type)
        ~protocol:(clamp_int protocol)
    in
    match Eof_apps.Sal.of_obj obj with
    | None -> Api.status Kerr.einval
    | Some sock ->
      let _ = Eof_apps.Sal.bind sal sock ~port:(clamp_int port) in
      Api.created ~kind:"socket" ~handle:obj.Kobj.handle
  in
  let with_sock h f =
    let* obj = lookup "socket" h in
    match Eof_apps.Sal.of_obj obj with None -> Api.status Kerr.einval | Some s -> f s
  in
  let sal_listen args =
    let* h = Api.get_res args 0 in
    let* backlog = Api.get_int args 1 in
    with_sock h (fun sock -> to_status (Eof_apps.Sal.listen sal sock ~backlog:(clamp_int backlog)))
  in
  let sal_sendto args =
    let* h = Api.get_res args 0 in
    let* data = Api.get_buf args 1 in
    with_sock h (fun sock ->
        match Eof_apps.Sal.sendto sal sock data with
        | Ok n -> Api.status (Int64.of_int n)
        | Error e -> Api.status e)
  in
  let sal_closesocket args =
    let* h = Api.get_res args 0 in
    let* obj = lookup "socket" h in
    with_sock h (fun sock ->
        let r = Eof_apps.Sal.close sal sock in
        Kobj.delete obj;
        to_status r)
  in

  (* --- timers (the re-entry trigger for bug #9) ---------------------- *)
  let rt_timer_create args =
    let* period = Api.get_int args 0 in
    let* flags = Api.get_int args 1 in
    Instr.cmp i_timer 0 period 10L;
    let periodic = Int64.logand flags 1L <> 0L in
    let allocating = Int64.logand flags 2L <> 0L in
    let callback () =
      if allocating then malloc_from_timer ()
      else
        match Kobj.first_of_kind reg "event" with
        | Some obj ->
          (match Event.of_obj obj with Some e -> Event.send e 0x8000 | None -> ())
        | None -> ()
    in
    let* obj =
      Swtimer.create ~reg ~wheel:ctx.wheel ~name:"rttimer"
        ~kind:(if periodic then Swtimer.Periodic else Swtimer.Oneshot)
        ~period:(max 1 (clamp_int period))
        ~callback
    in
    Api.created ~kind:"timer" ~handle:obj.Kobj.handle
  in
  let with_timer h f =
    let* obj = lookup "timer" h in
    match Swtimer.of_obj obj with None -> Api.status Kerr.einval | Some tm -> f tm
  in
  let rt_timer_start args =
    let* h = Api.get_res args 0 in
    with_timer h (fun tm ->
        Instr.edge i_timer 1;
        Swtimer.start tm;
        Api.ok_status)
  in
  let rt_timer_stop args =
    let* h = Api.get_res args 0 in
    with_timer h (fun tm ->
        Instr.edge i_timer 2;
        Swtimer.stop tm;
        Api.ok_status)
  in

  (* --- sys ----------------------------------------------------------- *)
  let rt_kprintf args =
    let* s = Api.get_str args 0 in
    Instr.cmp_i i_sys 0 (String.length s) 16;
    (* rt_kprintf goes through the console device, like the case study. *)
    console_write (Printf.sprintf "[RT-Thread] %s\n" s);
    Api.ok_status
  in
  let rt_tick_get _args =
    Instr.edge i_sys 1;
    Api.status (Int64.of_int (Sched.ticks ctx.sched))
  in

    let staged_entries =
    Statemach.entries ctx ~instr:(ctx.instr "rtt/devcfg") ~prefix:"rt_devcfg"
      ~resource:"rt_device" ~salt:85
  in
  let staged_entries =
    staged_entries
    @ Statemach.entries ctx ~instr:(ctx.instr "rtt/can") ~prefix:"rt_can"
        ~resource:"can_dev" ~salt:95
  in

  let staged_entries =
    staged_entries @ install_irq ctx ~instr:(ctx.instr "rtt/irq") ~prefix:"rt_pin"
  in

  Api.make_table ~os:"RT-Thread"
    ([
      entry "rt_thread_create"
        [ ("priority", Api.A_int { min = 0L; max = 31L });
          ("stack_size", Api.A_int { min = 256L; max = 8192L });
          ("flavor", Api.A_int { min = 0L; max = 7L }) ]
        (`Resource "thread") ~weight:3 ~doc:"Create a thread (starts suspended)"
        rt_thread_create;
      entry "rt_thread_startup" [ ("thread", Api.A_res "thread") ] `Status ~weight:2
        ~doc:"Start a created thread" rt_thread_startup;
      entry "rt_thread_delete" [ ("thread", Api.A_res "thread") ] `Status ~weight:1
        ~doc:"Delete a thread" rt_thread_delete;
      entry "rt_thread_mdelay" [ ("ms", Api.A_int { min = 0L; max = 50L }) ] `Status
        ~weight:2 ~doc:"Delay, running the scheduler" rt_thread_mdelay;
      entry "rt_object_detach" [ ("object", Api.A_res "event") ] `Status ~weight:3
        ~doc:"Detach a static object from its container" rt_object_detach;
      entry "rt_object_get_type" [ ("object", Api.A_res "event") ] `Status ~weight:3
        ~doc:"Query an object's type tag" rt_object_get_type;
      entry "rt_object_init" [ ("slot", Api.A_int { min = 0L; max = 7L }) ] `Status
        ~weight:2 ~doc:"Initialise a static object slot" rt_object_init;
      entry "rt_service_register" [] (`Resource "service") ~weight:2
        ~doc:"Register a kernel service" rt_service_register;
      entry "rt_service_unregister" [ ("service", Api.A_res "service") ] `Status ~weight:1
        ~doc:"Unregister a kernel service" rt_service_unregister;
      entry "rt_service_poll" [] `Status ~weight:2 ~doc:"Poll the kernel services list"
        rt_service_poll;
      entry "rt_mp_create"
        [ ("block_size", Api.A_int { min = 0L; max = 128L });
          ("block_count", Api.A_int { min = 1L; max = 16L }) ]
        (`Resource "mempool") ~weight:2 ~doc:"Create a fixed-block memory pool" rt_mp_create;
      entry "rt_mp_alloc" [ ("pool", Api.A_res "mempool") ] `Status ~weight:2
        ~doc:"Allocate a block from a pool" rt_mp_alloc;
      entry "rt_mp_free"
        [ ("pool", Api.A_res "mempool"); ("addr", Api.A_int { min = 0L; max = 4294967295L }) ]
        `Status ~weight:1 ~doc:"Return a block to a pool" rt_mp_free;
      entry "rt_malloc" [ ("size", Api.A_int { min = 0L; max = 8192L }) ]
        (`Resource "rtblock") ~weight:3 ~doc:"Allocate from the system heap" rt_malloc;
      entry "rt_free" [ ("block", Api.A_res "rtblock") ] `Status ~weight:2
        ~doc:"Free a heap block" rt_free;
      entry "rt_memheap_info" [] `Status ~weight:1 ~doc:"Report heap statistics"
        rt_memheap_info;
      entry "rt_smem_alloc" [ ("size", Api.A_int { min = 8L; max = 64L }) ]
        (`Resource "smem") ~weight:2 ~doc:"Allocate a small-memory block" rt_smem_alloc;
      entry "rt_smem_setname"
        [ ("block", Api.A_res "smem"); ("name", Api.A_str { max_len = 32 }) ]
        `Status ~weight:2 ~doc:"Label a small-memory block" rt_smem_setname;
      entry "rt_smem_free" [ ("block", Api.A_res "smem") ] `Status ~weight:1
        ~doc:"Free a small-memory block" rt_smem_free;
      entry "rt_event_create" [] (`Resource "event") ~weight:2 ~doc:"Create an event set"
        rt_event_create;
      entry "rt_event_delete" [ ("event", Api.A_res "event") ] `Status ~weight:2
        ~doc:"Delete an event set" rt_event_delete;
      entry "rt_event_send"
        [ ("event", Api.A_res "event"); ("bits", Api.A_int { min = 0L; max = 65535L }) ]
        `Status ~weight:2 ~doc:"Send event bits" rt_event_send;
      entry "rt_event_recv"
        [ ("event", Api.A_res "event");
          ("mask", Api.A_int { min = 1L; max = 65535L });
          ("opts", Api.A_flags [ ("and", 1L); ("clear", 2L) ]) ]
        `Status ~weight:2 ~doc:"Receive event bits" rt_event_recv;
      entry "rt_sem_create" [ ("initial", Api.A_int { min = 0L; max = 16L }) ]
        (`Resource "sem") ~weight:2 ~doc:"Create a semaphore" rt_sem_create;
      entry "rt_sem_take" [ ("sem", Api.A_res "sem") ] `Status ~weight:2
        ~doc:"Take a semaphore" rt_sem_take;
      entry "rt_sem_release" [ ("sem", Api.A_res "sem") ] `Status ~weight:2
        ~doc:"Release a semaphore" rt_sem_release;
      entry "rt_mutex_create" [] (`Resource "mutex") ~weight:1 ~doc:"Create a mutex"
        rt_mutex_create;
      entry "rt_mutex_take" [ ("mutex", Api.A_res "mutex") ] `Status ~weight:1
        ~doc:"Take a mutex" rt_mutex_take;
      entry "rt_mutex_release" [ ("mutex", Api.A_res "mutex") ] `Status ~weight:1
        ~doc:"Release a mutex" rt_mutex_release;
      entry "rt_mq_create"
        [ ("capacity", Api.A_int { min = 1L; max = 32L });
          ("msg_size", Api.A_int { min = 1L; max = 64L }) ]
        (`Resource "msgq") ~weight:2 ~doc:"Create a mail queue" rt_mq_create;
      entry "rt_mq_send"
        [ ("queue", Api.A_res "msgq"); ("data", Api.A_buf { max_len = 64 }) ]
        `Status ~weight:2 ~doc:"Send mail" rt_mq_send;
      entry "rt_mq_recv" [ ("queue", Api.A_res "msgq") ] `Status ~weight:2
        ~doc:"Receive mail" rt_mq_recv;
      entry "rt_serial_ctrl" [ ("cmd", Api.A_flags [ ("detach", 1L); ("attach", 2L) ]) ]
        `Status ~weight:1 ~doc:"Console serial device control" rt_serial_ctrl;
      entry "rt_device_write" [ ("data", Api.A_buf { max_len = 64 }) ] `Status ~weight:2
        ~doc:"Write to the console serial device" rt_device_write;
      entry "syz_create_bind_socket"
        [ ("domain", Api.A_int { min = 0L; max = 48136L });
          ("type", Api.A_int { min = 0L; max = 4L });
          ("protocol", Api.A_int { min = 0L; max = 257L });
          ("port", Api.A_int { min = 0L; max = 65535L }) ]
        (`Resource "socket") ~weight:3
        ~doc:"Pseudo-syscall: create a socket and bind it" syz_create_bind_socket;
      entry "sal_listen"
        [ ("socket", Api.A_res "socket"); ("backlog", Api.A_int { min = 0L; max = 128L }) ]
        `Status ~weight:1 ~doc:"Listen on a stream socket" sal_listen;
      entry "sal_sendto"
        [ ("socket", Api.A_res "socket"); ("data", Api.A_buf { max_len = 256 }) ]
        `Status ~weight:2 ~doc:"Transmit a payload" sal_sendto;
      entry "sal_closesocket" [ ("socket", Api.A_res "socket") ] `Status ~weight:1
        ~doc:"Close a socket" sal_closesocket;
      entry "rt_timer_create"
        [ ("period", Api.A_int { min = 1L; max = 20L });
          ("flags", Api.A_flags [ ("periodic", 1L); ("allocating", 2L) ]) ]
        (`Resource "timer") ~weight:2 ~doc:"Create a software timer" rt_timer_create;
      entry "rt_timer_start" [ ("timer", Api.A_res "timer") ] `Status ~weight:2
        ~doc:"Start a timer" rt_timer_start;
      entry "rt_timer_stop" [ ("timer", Api.A_res "timer") ] `Status ~weight:1
        ~doc:"Stop a timer" rt_timer_stop;
      entry "rt_kprintf" [ ("text", Api.A_str { max_len = 64 }) ] `Status ~weight:1
        ~doc:"Print via the kernel console" rt_kprintf;
      entry "rt_tick_get" [] `Status ~weight:1 ~doc:"Read the kernel tick" rt_tick_get;
    ]
     @ staged_entries)


let spec =
  {
    Osbuild.os_name = "RT-Thread";
    version = "2f55990";
    base_kernel_bytes = 156_000;
    modules =
      [
        ("rtt/thread", 32);
        ("rtt/object", 24);
        ("rtt/service", 16);
        ("rtt/mempool", 16);
        ("rtt/heap", 32);
        ("rtt/smem", 16);
        ("rtt/ipc", 32);
        ("rtt/mq", 16);
        ("rtt/serial", Eof_apps.Serial.site_count);
        ("rtt/sal", Eof_apps.Sal.site_count);
        ("rtt/timer", 16);
        ("rtt/sys", 16);
        ("rtt/devcfg", Statemach.site_count);
        ("rtt/can", Statemach.site_count);
        ("rtt/irq", Oscommon.irq_site_count);
      ];
    banner = " \\ | /\n- RT -     Thread Operating System\n / | \\     4.1.2 build 2f55990";
    kernel_patches = [];
    install;
  }
