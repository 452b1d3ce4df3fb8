open Eof_hw
open Eof_rtos
open Oscommon
module Instr = Eof_rtos.Instr

type Kobj.payload += Port_block of { addr : int }

let http_module = "frt/http"

let json_module = "frt/json"

(* The backup partition table lives one sector into the kernel blob. *)
let backup_table_blob_offset = 0x4000

let backup_table_flash_offset = Osbuild.bootloader_bytes + backup_table_blob_offset

let install (ctx : Osbuild.ctx) =
  let reg = ctx.reg in
  let panic = ctx.panic in
  let heap = ctx.heap in
  let flash_mem = Flash.mem (Board.flash ctx.board) in
  let flash_base = (Board.profile ctx.board).Board.flash_base in
  let i_task = ctx.instr "frt/task" in
  let i_queue = ctx.instr "frt/queue" in
  let i_sem = ctx.instr "frt/sem" in
  let i_timer = ctx.instr "frt/timer" in
  let i_event = ctx.instr "frt/event" in
  let i_heap = ctx.instr "frt/heap" in
  let i_part = ctx.instr "frt/partition" in
  let i_http = ctx.instr http_module in
  let i_json = ctx.instr json_module in
  let i_sys = ctx.instr "frt/sys" in
  let http_server = Eof_apps.Http.Server.create ~instr:i_http ~json_instr:i_json in
  let entry name args ret ~weight ~doc handler =
    { Api.name; args; ret; doc; weight; handler }
  in
  let lookup kind h = Kobj.lookup_active reg h ~kind in

  (* --- tasks ---------------------------------------------------------- *)
  let x_task_create args =
    let* prio = Api.get_int args 0 in
    let* stack = Api.get_int args 1 in
    let* flavor = Api.get_int args 2 in
    Instr.cmp i_task 0 prio 5L;
    Instr.cmp i_task 1 stack 1024L;
    let* obj =
      spawn_worker ctx ~name:"frtask"
        ~priority:(Sched.max_priority - min Sched.max_priority (clamp_int prio))
        ~stack_size:(clamp_int stack) ~flavor:(clamp_int flavor)
    in
    Instr.edge i_task 2;
    Api.created ~kind:"task" ~handle:obj.Kobj.handle
  in
  let with_task h f =
    let* obj = lookup "task" h in
    match Sched.of_obj obj with None -> Api.status Kerr.einval | Some tcb -> f obj tcb
  in
  let v_task_delete args =
    let* h = Api.get_res args 0 in
    with_task h (fun obj tcb ->
        Instr.edge i_task 3;
        Sched.finish tcb;
        Kobj.delete obj;
        Api.ok_status)
  in
  let v_task_suspend args =
    let* h = Api.get_res args 0 in
    with_task h (fun _ tcb ->
        Instr.edge i_task 4;
        Sched.suspend tcb;
        Api.ok_status)
  in
  let v_task_resume args =
    let* h = Api.get_res args 0 in
    with_task h (fun _ tcb ->
        Instr.edge i_task 5;
        Sched.resume tcb;
        Api.ok_status)
  in
  let v_task_priority_set args =
    let* h = Api.get_res args 0 in
    let* prio = Api.get_int args 1 in
    with_task h (fun _ tcb ->
        Instr.cmp i_task 6 prio 12L;
        to_status
          (Sched.set_priority tcb
             (Sched.max_priority - min Sched.max_priority (clamp_int prio))))
  in
  let v_task_delay args =
    let* ticks = Api.get_int args 0 in
    let ticks = max 0 (min 50 (clamp_int ticks)) in
    Instr.cmp_i i_task 7 ticks 10;
    pump ctx ticks;
    Api.ok_status
  in

  (* --- queues ---------------------------------------------------------- *)
  let x_queue_create args =
    let* length = Api.get_int args 0 in
    let* item_size = Api.get_int args 1 in
    Instr.cmp i_queue 0 length 16L;
    Instr.cmp i_queue 7 item_size 32L;
    let* obj =
      Msgq.create ~reg ~heap ~name:"frqueue" ~capacity:(clamp_int length)
        ~item_size:(clamp_int item_size)
    in
    Api.created ~kind:"msgq" ~handle:obj.Kobj.handle
  in
  let with_queue h f =
    let* obj = lookup "msgq" h in
    match Msgq.of_obj obj with None -> Api.status Kerr.einval | Some q -> f q
  in
  let x_queue_send args =
    let* h = Api.get_res args 0 in
    let* data = Api.get_buf args 1 in
    with_queue h (fun q ->
        Instr.cmp_i i_queue 1 (String.length data) 16;
        match Msgq.send q data with
        | Ok () ->
          Instr.edge i_queue 2;
          Api.ok_status
        | Error e ->
          Instr.edge i_queue 3;
          Api.status e)
  in
  let x_queue_receive args =
    let* h = Api.get_res args 0 in
    with_queue h (fun q ->
        match Msgq.recv q with
        | Ok _ ->
          Instr.edge i_queue 4;
          Api.ok_status
        | Error e ->
          Instr.edge i_queue 5;
          Api.status e)
  in
  let x_queue_reset args =
    let* h = Api.get_res args 0 in
    with_queue h (fun q ->
        Instr.edge i_queue 6;
        (* FreeRTOS xQueueReset drains without poisoning; drain by
           repeated receive to keep the ring consistent. *)
        let rec drain () =
          match Msgq.recv q with Ok _ -> drain () | Error _ -> ()
        in
        drain ();
        Api.ok_status)
  in

  (* --- semaphores ------------------------------------------------------ *)
  let x_semaphore_create_counting args =
    let* max_count = Api.get_int args 0 in
    let* initial = Api.get_int args 1 in
    Instr.cmp i_sem 0 max_count 8L;
    Instr.cmp i_sem 3 initial 0L;
    let* obj =
      Sem.create ~reg ~name:"frsem" ~initial:(clamp_int initial)
        ~max_count:(clamp_int max_count)
    in
    Api.created ~kind:"sem" ~handle:obj.Kobj.handle
  in
  let with_sem h f =
    let* obj = lookup "sem" h in
    match Sem.of_obj obj with None -> Api.status Kerr.einval | Some s -> f s
  in
  let x_semaphore_take args =
    let* h = Api.get_res args 0 in
    with_sem h (fun s ->
        Instr.cmp_i i_sem 1 (Sem.count s) 0;
        to_status (Sem.take s))
  in
  let x_semaphore_give args =
    let* h = Api.get_res args 0 in
    with_sem h (fun s ->
        Instr.edge i_sem 2;
        to_status (Sem.give s))
  in

  (* --- software timers -------------------------------------------------- *)
  let x_timer_create args =
    let* period = Api.get_int args 0 in
    let* auto_reload = Api.get_int args 1 in
    Instr.cmp i_timer 0 period 10L;
    let callback () =
      match Kobj.first_of_kind reg "event" with
      | Some obj ->
        (match Event.of_obj obj with Some e -> Event.send e 0x01 | None -> ())
      | None -> ()
    in
    let* obj =
      Swtimer.create ~reg ~wheel:ctx.wheel ~name:"frtimer"
        ~kind:(if Int64.compare auto_reload 0L > 0 then Swtimer.Periodic else Swtimer.Oneshot)
        ~period:(max 1 (clamp_int period))
        ~callback
    in
    Api.created ~kind:"timer" ~handle:obj.Kobj.handle
  in
  let with_timer h f =
    let* obj = lookup "timer" h in
    match Swtimer.of_obj obj with None -> Api.status Kerr.einval | Some tm -> f tm
  in
  let x_timer_start args =
    let* h = Api.get_res args 0 in
    with_timer h (fun tm ->
        Instr.edge i_timer 1;
        Swtimer.start tm;
        Api.ok_status)
  in
  let x_timer_stop args =
    let* h = Api.get_res args 0 in
    with_timer h (fun tm ->
        Instr.edge i_timer 2;
        Swtimer.stop tm;
        Api.ok_status)
  in

  (* --- event groups ------------------------------------------------------ *)
  let x_event_group_create _args =
    Instr.edge i_event 0;
    let obj = Event.create ~reg ~name:"frevent" in
    Api.created ~kind:"event" ~handle:obj.Kobj.handle
  in
  let with_event h f =
    let* obj = lookup "event" h in
    match Event.of_obj obj with None -> Api.status Kerr.einval | Some e -> f e
  in
  let x_event_group_set_bits args =
    let* h = Api.get_res args 0 in
    let* bits = Api.get_int args 1 in
    with_event h (fun e ->
        Instr.cmp i_event 1 bits 0xFF00L;
        Event.send e (clamp_int bits land 0xFFFFFF);
        Api.ok_status)
  in
  let x_event_group_wait_bits args =
    let* h = Api.get_res args 0 in
    let* mask = Api.get_int args 1 in
    let* opts = Api.get_int args 2 in
    with_event h (fun e ->
        Instr.cmp i_event 2 mask 0xFFL;
        match
          Event.recv e ~mask:(clamp_int mask)
            ~all:(Int64.logand opts 1L <> 0L)
            ~clear:(Int64.logand opts 2L <> 0L)
        with
        | Ok got ->
          Instr.edge i_event 3;
          Api.status (Int64.of_int got)
        | Error err ->
          Instr.edge i_event 4;
          Api.status err)
  in

  (* --- heap --------------------------------------------------------------- *)
  let pv_port_malloc args =
    let* size = Api.get_int args 0 in
    Instr.cmp i_heap 0 size 128L;
    let size = clamp_int size in
    if size < 0 || size > 8192 then Api.status Kerr.einval
    else begin
      match Heap.alloc heap size with
      | None ->
        Instr.edge i_heap 1;
        Api.status Kerr.enomem
      | Some addr ->
        Instr.edge i_heap 2;
        let obj = Kobj.register reg ~kind:"frblock" ~name:"frblock" (Port_block { addr }) in
        Api.created ~kind:"frblock" ~handle:obj.Kobj.handle
    end
  in
  let v_port_free args =
    let* h = Api.get_res args 0 in
    let* obj = lookup "frblock" h in
    match obj.Kobj.payload with
    | Port_block { addr } ->
      Instr.edge i_heap 3;
      Kobj.delete obj;
      (match Heap.free heap addr with
       | Ok () -> Api.ok_status
       | Error _ -> Api.status Kerr.einval)
    | _ -> Api.status Kerr.einval
  in
  let x_port_get_free_heap_size _args =
    Instr.cmp_i i_heap 4 (Heap.free_bytes heap) 0;
    Api.status (Int64.of_int (Heap.free_bytes heap))
  in

  (* --- partition loader (bug #13) ------------------------------------------ *)
  let load_partitions args =
    let* offset = Api.get_int args 0 in
    let offset = clamp_int offset in
    Instr.cmp_i i_part 0 offset 0x8000;
    if offset < 0 || offset > 0xFFFF || offset mod 0x1000 <> 0 then Api.status Kerr.einval
    else begin
      let addr = flash_base + offset in
      let magic = Memory.read_u32 flash_mem addr in
      Instr.cmp i_part 1 (Int64.of_int32 magic) (Int64.of_int32 0x4C425450l);
      if not (Int32.equal magic 0x4C425450l (* "PTBL" little-endian *)) then
        Api.status Kerr.enoent
      else begin
        Instr.edge i_part 2;
        (* Parse two (offset, size) entries and check for overlap. The
           graceful path is missing: overlap panics (BUG #13). *)
        let e1_off = Int32.to_int (Memory.read_u32 flash_mem (addr + 4)) in
        let e1_size = Int32.to_int (Memory.read_u32 flash_mem (addr + 8)) in
        let e2_off = Int32.to_int (Memory.read_u32 flash_mem (addr + 12)) in
        let e2_size = Int32.to_int (Memory.read_u32 flash_mem (addr + 16)) in
        Instr.cmp_i i_part 3 e1_off e2_off;
        let overlap = e1_off < e2_off + e2_size && e2_off < e1_off + e1_size in
        if overlap then
          Panic.panic panic
            ~backtrace:
              [
                "components/esp_partition/partition.c : load_partitions : 188";
                "components/esp_partition/partition.c : ensure_partitions_loaded : 120";
              ]
            (Printf.sprintf
               "overlapping partition entries [0x%x,+0x%x) and [0x%x,+0x%x) in backup table"
               e1_off e1_size e2_off e2_size)
        else begin
          Instr.edge i_part 4;
          Api.ok_status
        end
      end
    end
  in

  (* --- demo application: HTTP server and JSON -------------------------------- *)
  let http_request args =
    let* raw = Api.get_buf args 0 in
    let response = Eof_apps.Http.Server.handle http_server raw in
    Instr.cmp_i i_sys 2 response.Eof_apps.Http.status 200;
    Api.status (Int64.of_int response.Eof_apps.Http.status)
  in
  let syz_http_get args =
    let* path = Api.get_str args 0 in
    (* Pseudo-syscall: issue a well-formed GET so deeper routes are
       reachable without the generator inventing HTTP syntax. *)
    let raw = Printf.sprintf "GET /%s HTTP/1.1\r\nHost: dev\r\n\r\n" path in
    let response = Eof_apps.Http.Server.handle http_server raw in
    Api.status (Int64.of_int response.Eof_apps.Http.status)
  in
  let syz_http_post_json args =
    let* body = Api.get_buf args 0 in
    let raw =
      Printf.sprintf "POST /api/echo HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
        (String.length body) body
    in
    let response = Eof_apps.Http.Server.handle http_server raw in
    Api.status (Int64.of_int response.Eof_apps.Http.status)
  in
  let json_parse args =
    let* text = Api.get_buf args 0 in
    match Eof_apps.Json.parse ~instr:i_json text with
    | Ok doc ->
      Instr.cmp_i i_sys 3 (Eof_apps.Json.depth doc) 4;
      Api.ok_status
    | Error _ -> Api.status Kerr.einval
  in

  (* --- sys -------------------------------------------------------------------- *)
  let x_task_get_tick_count _args =
    Instr.edge i_sys 0;
    Api.status (Int64.of_int (Sched.ticks ctx.sched))
  in
  let esp_log args =
    let* s = Api.get_str args 0 in
    Instr.cmp_i i_sys 1 (String.length s) 16;
    Klog.info ~os:ctx.os_name s;
    Api.ok_status
  in

    let staged_entries =
    Statemach.entries ctx ~instr:(ctx.instr "frt/wifi") ~prefix:"wifi_prov"
      ~resource:"wifi_dev" ~salt:153
  in
  let staged_entries =
    staged_entries
    @ Statemach.entries ctx ~instr:(ctx.instr "frt/ble") ~prefix:"ble_gatt"
        ~resource:"ble_dev" ~salt:167
  in
  let staged_entries =
    staged_entries
    @ Statemach.entries ctx ~instr:(ctx.instr "frt/ota") ~prefix:"ota_update"
        ~resource:"ota_dev" ~salt:195
  in

  let staged_entries =
    staged_entries @ install_irq ctx ~instr:(ctx.instr "frt/irq") ~prefix:"gpio_isr"
  in

  Api.make_table ~os:"FreeRTOS"
    ([
      entry "xTaskCreate"
        [ ("priority", Api.A_int { min = 0L; max = 24L });
          ("stack_depth", Api.A_int { min = 256L; max = 8192L });
          ("flavor", Api.A_int { min = 0L; max = 7L }) ]
        (`Resource "task") ~weight:3 ~doc:"Create and start a task" x_task_create;
      entry "vTaskDelete" [ ("task", Api.A_res "task") ] `Status ~weight:1
        ~doc:"Delete a task" v_task_delete;
      entry "vTaskSuspend" [ ("task", Api.A_res "task") ] `Status ~weight:1
        ~doc:"Suspend a task" v_task_suspend;
      entry "vTaskResume" [ ("task", Api.A_res "task") ] `Status ~weight:1
        ~doc:"Resume a task" v_task_resume;
      entry "vTaskPrioritySet"
        [ ("task", Api.A_res "task"); ("priority", Api.A_int { min = 0L; max = 24L }) ]
        `Status ~weight:1 ~doc:"Change a task's priority" v_task_priority_set;
      entry "vTaskDelay" [ ("ticks", Api.A_int { min = 0L; max = 50L }) ] `Status ~weight:2
        ~doc:"Block for a number of ticks" v_task_delay;
      entry "xQueueCreate"
        [ ("length", Api.A_int { min = 1L; max = 64L });
          ("item_size", Api.A_int { min = 1L; max = 128L }) ]
        (`Resource "msgq") ~weight:3 ~doc:"Create a queue" x_queue_create;
      entry "xQueueSend"
        [ ("queue", Api.A_res "msgq"); ("data", Api.A_buf { max_len = 128 }) ]
        `Status ~weight:3 ~doc:"Send to a queue" x_queue_send;
      entry "xQueueReceive" [ ("queue", Api.A_res "msgq") ] `Status ~weight:2
        ~doc:"Receive from a queue" x_queue_receive;
      entry "xQueueReset" [ ("queue", Api.A_res "msgq") ] `Status ~weight:1
        ~doc:"Drain a queue" x_queue_reset;
      entry "xSemaphoreCreateCounting"
        [ ("max_count", Api.A_int { min = 1L; max = 16L });
          ("initial", Api.A_int { min = 0L; max = 16L }) ]
        (`Resource "sem") ~weight:2 ~doc:"Create a counting semaphore"
        x_semaphore_create_counting;
      entry "xSemaphoreTake" [ ("sem", Api.A_res "sem") ] `Status ~weight:2
        ~doc:"Take a semaphore" x_semaphore_take;
      entry "xSemaphoreGive" [ ("sem", Api.A_res "sem") ] `Status ~weight:2
        ~doc:"Give a semaphore" x_semaphore_give;
      entry "xTimerCreate"
        [ ("period", Api.A_int { min = 1L; max = 20L });
          ("auto_reload", Api.A_int { min = 0L; max = 1L }) ]
        (`Resource "timer") ~weight:2 ~doc:"Create a software timer" x_timer_create;
      entry "xTimerStart" [ ("timer", Api.A_res "timer") ] `Status ~weight:2
        ~doc:"Start a timer" x_timer_start;
      entry "xTimerStop" [ ("timer", Api.A_res "timer") ] `Status ~weight:1
        ~doc:"Stop a timer" x_timer_stop;
      entry "xEventGroupCreate" [] (`Resource "event") ~weight:2
        ~doc:"Create an event group" x_event_group_create;
      entry "xEventGroupSetBits"
        [ ("event", Api.A_res "event"); ("bits", Api.A_int { min = 0L; max = 16777215L }) ]
        `Status ~weight:2 ~doc:"Set event bits" x_event_group_set_bits;
      entry "xEventGroupWaitBits"
        [ ("event", Api.A_res "event");
          ("mask", Api.A_int { min = 1L; max = 16777215L });
          ("opts", Api.A_flags [ ("all", 1L); ("clear", 2L) ]) ]
        `Status ~weight:2 ~doc:"Poll for event bits" x_event_group_wait_bits;
      entry "pvPortMalloc" [ ("size", Api.A_int { min = 0L; max = 8192L }) ]
        (`Resource "frblock") ~weight:3 ~doc:"Allocate from the FreeRTOS heap"
        pv_port_malloc;
      entry "vPortFree" [ ("block", Api.A_res "frblock") ] `Status ~weight:2
        ~doc:"Free a heap block" v_port_free;
      entry "xPortGetFreeHeapSize" [] `Status ~weight:1 ~doc:"Free heap bytes"
        x_port_get_free_heap_size;
      entry "load_partitions" [ ("offset", Api.A_int { min = 0L; max = 65535L }) ] `Status
        ~weight:2 ~doc:"Load a partition table from flash" load_partitions;
      entry "http_request" [ ("raw", Api.A_buf { max_len = 512 }) ] `Status ~weight:3
        ~doc:"Feed a raw request to the HTTP server" http_request;
      entry "syz_http_get" [ ("path", Api.A_str { max_len = 48 }) ] `Status ~weight:2
        ~doc:"Pseudo-syscall: well-formed GET request" syz_http_get;
      entry "syz_http_post_json" [ ("body", Api.A_buf { max_len = 256 }) ] `Status
        ~weight:2 ~doc:"Pseudo-syscall: POST a JSON body to /api/echo" syz_http_post_json;
      entry "json_parse" [ ("text", Api.A_buf { max_len = 256 }) ] `Status ~weight:2
        ~doc:"Parse a JSON document" json_parse;
      entry "xTaskGetTickCount" [] `Status ~weight:1 ~doc:"Read the tick counter"
        x_task_get_tick_count;
      entry "esp_log" [ ("text", Api.A_str { max_len = 64 }) ] `Status ~weight:1
        ~doc:"Log a line" esp_log;
    ]
     @ staged_entries)


(* The poisoned backup partition table: magic "PTBL" then two
   overlapping (offset, size) entries, little-endian. *)
let poisoned_table =
  let b = Bytes.create 20 in
  Bytes.set_int32_le b 0 0x4C425450l;
  Bytes.set_int32_le b 4 0x0000l;
  Bytes.set_int32_le b 8 0x8000l;
  Bytes.set_int32_le b 12 0x4000l;
  Bytes.set_int32_le b 16 0x4000l;
  Bytes.unsafe_to_string b

let spec =
  {
    Osbuild.os_name = "FreeRTOS";
    version = "v5.4";
    base_kernel_bytes = 232_000;
    modules =
      [
        ("frt/task", 24);
        ("frt/queue", 24);
        ("frt/sem", 16);
        ("frt/timer", 16);
        ("frt/event", 16);
        ("frt/heap", 24);
        ("frt/partition", 16);
        (http_module, Eof_apps.Http.site_count);
        (json_module, Eof_apps.Json.site_count);
        ("frt/sys", 16);
        ("frt/wifi", Statemach.site_count);
        ("frt/ble", Statemach.site_count);
        ("frt/ota", Statemach.site_count);
        ("frt/irq", Oscommon.irq_site_count);
      ];
    banner = "ESP-ROM:esp32-2021r1 FreeRTOS v5.4 SMP";
    kernel_patches = [ (backup_table_blob_offset, poisoned_table) ];
    install;
  }
