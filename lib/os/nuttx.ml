open Eof_hw
open Eof_rtos
open Oscommon
module Instr = Eof_rtos.Instr

type Kobj.payload += Fd of Ramfs.fd

let env_arena_bytes = 512

let install (ctx : Osbuild.ctx) =
  let reg = ctx.reg in
  let panic = ctx.panic in
  let heap = ctx.heap in
  let ram = Board.ram ctx.board in
  let profile = Board.profile ctx.board in
  let i_task = ctx.instr "nuttx/task" in
  let i_env = ctx.instr "nuttx/env" in
  let i_mq = ctx.instr "nuttx/mq" in
  let i_sem = ctx.instr "nuttx/sem" in
  let i_timer = ctx.instr "nuttx/timer" in
  let i_libc = ctx.instr "nuttx/libc" in
  let i_sys = ctx.instr "nuttx/sys" in
  let entry name args ret ~weight ~doc handler =
    { Api.name; args; ret; doc; weight; handler }
  in
  let lookup kind h = Kobj.lookup_active reg h ~kind in

  (* The fixed environment arena, physically backed by kernel heap
     storage so an overflow scribbles the neighbouring block header. *)
  let env_base =
    match Heap.alloc heap env_arena_bytes with
    | Some a -> a
    | None -> invalid_arg "nuttx: env arena allocation failed"
  in
  let env : (string * string) list ref = ref [] in
  let env_bytes entries =
    List.fold_left (fun acc (n, v) -> acc + String.length n + String.length v + 2) 0 entries
  in
  let env_write_through entries =
    (* Serialise "name=value\0" records from the arena base, with no
       bounds check — the missing check IS bug #14. *)
    let buf = Buffer.create 128 in
    List.iter
      (fun (n, v) ->
        Buffer.add_string buf n;
        Buffer.add_char buf '=';
        Buffer.add_string buf v;
        Buffer.add_char buf '\000')
      entries;
    Memory.write_bytes ram ~addr:env_base (Buffer.to_bytes buf)
  in

  (* --- filesystem ----------------------------------------------------- *)
  let i_fs = ctx.instr "nuttx/fs" in
  let fs = Ramfs.create ~heap ~max_files:8 ~max_file_bytes:2048 in
  let nx_open args =
    let* path = Api.get_str args 0 in
    let* flags = Api.get_int args 1 in
    Instr.cmp_i i_fs 0 (String.length path) 16;
    Instr.cmp i_fs 1 flags 3L;
    let create = Int64.logand flags 1L <> 0L in
    let write = Int64.logand flags 2L <> 0L in
    (match Ramfs.open_ fs ~path ~create ~write with
     | Ok fd ->
       Instr.edge i_fs 2;
       let obj = Kobj.register reg ~kind:"fd" ~name:path (Fd fd) in
       Api.created ~kind:"fd" ~handle:obj.Kobj.handle
     | Error e ->
       Instr.edge i_fs 3;
       Api.status e)
  in
  let with_fd h f =
    let* obj = lookup "fd" h in
    match obj.Kobj.payload with Fd fd -> f fd | _ -> Api.status Kerr.einval
  in
  let nx_write args =
    let* h = Api.get_res args 0 in
    let* data = Api.get_buf args 1 in
    with_fd h (fun fd ->
        Instr.cmp_i i_fs 4 (String.length data) 64;
        match Ramfs.write fs fd data with
        | Ok n ->
          Instr.edge i_fs 5;
          Api.status (Int64.of_int n)
        | Error e ->
          Instr.edge i_fs 6;
          Api.status e)
  in
  let nx_read args =
    let* h = Api.get_res args 0 in
    let* max = Api.get_int args 1 in
    with_fd h (fun fd ->
        match Ramfs.read fs fd ~max:(clamp_int max land 0xFFFF) with
        | Ok data ->
          Instr.cmp_i i_fs 7 (String.length data) 0;
          Api.ok_status
        | Error e ->
          Instr.edge i_fs 8;
          Api.status e)
  in
  let nx_close args =
    let* h = Api.get_res args 0 in
    let* obj = lookup "fd" h in
    with_fd h (fun fd ->
        Instr.edge i_fs 9;
        Kobj.delete obj;
        to_status (Ramfs.close fs fd))
  in
  let nx_unlink args =
    let* path = Api.get_str args 0 in
    Instr.cmp_i i_fs 10 (String.length path) 8;
    (match Ramfs.unlink fs ~path with
     | Ok () ->
       Instr.edge i_fs 11;
       Api.ok_status
     | Error e ->
       Instr.edge i_fs 12;
       Api.status e)
  in

  (* --- tasks --------------------------------------------------------- *)
  let task_create args =
    let* prio = Api.get_int args 0 in
    let* stack = Api.get_int args 1 in
    let* flavor = Api.get_int args 2 in
    Instr.cmp i_task 0 prio 100L;
    Instr.cmp i_task 1 stack 2048L;
    (* NuttX priorities are 1..255; map onto the scheduler's 0..31. *)
    let prio = clamp_int prio in
    if prio < 1 || prio > 255 then Api.status Kerr.einval
    else
      let* obj =
        spawn_worker ctx ~name:"nxtask" ~priority:(prio * 31 / 255)
          ~stack_size:(clamp_int stack) ~flavor:(clamp_int flavor)
      in
      Instr.edge i_task 2;
      Api.created ~kind:"task" ~handle:obj.Kobj.handle
  in
  let with_task h f =
    let* obj = lookup "task" h in
    match Sched.of_obj obj with None -> Api.status Kerr.einval | Some tcb -> f obj tcb
  in
  let task_delete args =
    let* h = Api.get_res args 0 in
    with_task h (fun obj tcb ->
        Instr.edge i_task 3;
        Sched.finish tcb;
        Kobj.delete obj;
        Api.ok_status)
  in
  let task_restart args =
    let* h = Api.get_res args 0 in
    with_task h (fun _ tcb ->
        Instr.edge i_task 4;
        Sched.resume tcb;
        Api.ok_status)
  in
  let usleep args =
    let* us = Api.get_int args 0 in
    let ticks = min 50 (clamp_int us / 1000) in
    Instr.cmp_i i_task 5 ticks 5;
    pump ctx (max 0 ticks);
    Api.ok_status
  in

  (* --- environment (bug #14) ----------------------------------------- *)
  let setenv args =
    let* name = Api.get_str args 0 in
    let* value = Api.get_str args 1 in
    if name = "" || String.contains name '=' then Api.status Kerr.einval
    else begin
      Instr.cmp_i i_env 0 (String.length name) (String.length value);
      let entries = (name, value) :: List.remove_assoc name !env in
      let needed = env_bytes entries in
      Instr.cmp_i i_env 1 needed env_arena_bytes;
      env := entries;
      (* BUG #14 (confirmed): the arena is grown past its fixed size;
         the write-through scribbles the next heap block and the env
         index rebuild trips over the damage. *)
      env_write_through entries;
      if needed > env_arena_bytes then begin
        Instr.edge i_env 2;
        ignore (Heap.used_bytes heap : int)
      end;
      Instr.edge i_env 3;
      Api.ok_status
    end
  in
  let unsetenv args =
    let* name = Api.get_str args 0 in
    Instr.cmp_i i_env 4 (String.length name) 8;
    if List.mem_assoc name !env then begin
      env := List.remove_assoc name !env;
      env_write_through !env;
      Instr.edge i_env 5;
      Api.ok_status
    end
    else Api.status Kerr.enoent
  in
  let getenv args =
    let* name = Api.get_str args 0 in
    match List.assoc_opt name !env with
    | Some v ->
      Instr.cmp_i i_env 6 (String.length v) 8;
      Api.ok_status
    | None ->
      Instr.edge i_env 7;
      Api.status Kerr.enoent
  in

  (* --- message queues (bug #16) --------------------------------------- *)
  let mq_open args =
    let* capacity = Api.get_int args 0 in
    let* msg_size = Api.get_int args 1 in
    Instr.cmp i_mq 0 capacity 8L;
    Instr.cmp i_mq 10 msg_size 32L;
    let* obj =
      Msgq.create ~reg ~heap ~name:"nxmq" ~capacity:(clamp_int capacity)
        ~item_size:(clamp_int msg_size)
    in
    Api.created ~kind:"msgq" ~handle:obj.Kobj.handle
  in
  let with_mq h f =
    let* obj = lookup "msgq" h in
    match Msgq.of_obj obj with None -> Api.status Kerr.einval | Some q -> f q
  in
  let mq_send args =
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
  let mq_receive args =
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
  let nxmq_timedsend args =
    let* h = Api.get_res args 0 in
    let* data = Api.get_buf args 1 in
    let* timeout_ms = Api.get_int args 2 in
    with_mq h (fun q ->
        Instr.cmp i_mq 6 timeout_ms 1000L;
        if Msgq.is_full q then begin
          (* The blocking path computes an absolute tick deadline in a
             32-bit int: BUG #16 wraps it negative, but only a deadline
             landing just past INT32_MAX survives the later sanity
             clamp — a narrow window that blind generation essentially
             never hits, while the traced comparison against the
             constant hands a guided fuzzer the target value. *)
          (* The compiler folds INT32_MAX / TICKS_PER_MS into a
             constant, so the traced comparison is against the input
             itself — which is what lets comparison-operand harvesting
             reconstruct the trigger. *)
          let wrap_bound = 21_474_836L (* INT32_MAX / 100 *) in
          Instr.cmp i_mq 7 timeout_ms wrap_bound;
          if
            Int64.compare timeout_ms wrap_bound > 0
            && Int64.compare timeout_ms 85_899_345L < 0
          then
            Panic.panic panic
              ~backtrace:
                [
                  "sched/mqueue/mq_timedsend.c : nxmq_timedsend : 338";
                  "sched/mqueue/mq_timedsend.c : nxmq_rtimedsend : 229";
                ]
              (Printf.sprintf "deadline overflow: timeout %Ld ms wrapped negative" timeout_ms)
          else begin
            Instr.edge i_mq 8;
            Api.status Kerr.etimedout
          end
        end
        else
          match Msgq.send q data with
          | Ok () ->
            Instr.edge i_mq 9;
            Api.ok_status
          | Error e -> Api.status e)
  in

  (* --- semaphores (bug #17) ------------------------------------------- *)
  let sem_init args =
    let* initial = Api.get_int args 0 in
    Instr.cmp i_sem 0 initial 1L;
    let* obj =
      Sem.create ~reg ~name:"nxsem" ~initial:(clamp_int initial) ~max_count:32
    in
    Api.created ~kind:"sem" ~handle:obj.Kobj.handle
  in
  let sem_post args =
    let* h = Api.get_res args 0 in
    let* obj = lookup "sem" h in
    (match Sem.of_obj obj with
     | None -> Api.status Kerr.einval
     | Some s ->
       Instr.edge i_sem 1;
       to_status (Sem.give s))
  in
  let sem_destroy args =
    let* h = Api.get_res args 0 in
    let* obj = lookup "sem" h in
    Instr.edge i_sem 2;
    Kobj.delete obj;
    Api.ok_status
  in
  let nxsem_trywait args =
    let* h = Api.get_res args 0 in
    (* BUG #17: the fast path skips the usual handle validation; a
       destroyed semaphore trips the DEBUGASSERT instead. *)
    match Kobj.lookup reg h with
    | None -> Api.status Kerr.enoent
    | Some obj when obj.Kobj.kind <> "sem" -> Api.status Kerr.einval
    | Some obj ->
      Instr.cmp_i i_sem 3 (Hashtbl.hash obj.Kobj.state land 0xF) 0;
      if obj.Kobj.state = Kobj.Deleted then begin
        Panic.kassert panic false
          (Printf.sprintf "nxsem_trywait: sem->crefs > 0 (handle %d destroyed)" h);
        Api.status Kerr.einval
      end
      else begin
        match Sem.of_obj obj with
        | None -> Api.status Kerr.einval
        | Some s ->
          Instr.cmp_i i_sem 4 (Sem.count s) 0;
          to_status (Sem.take s)
      end
  in

  (* --- POSIX timers (bug #18) ----------------------------------------- *)
  let timer_create args =
    let* clock_id = Api.get_int args 0 in
    let* sigev = Api.get_int args 1 in
    Instr.cmp i_timer 0 clock_id 0L;
    Instr.cmp i_timer 1 sigev 0L;
    let clock_id = clamp_int clock_id in
    let sigev = clamp_int sigev in
    if clock_id <> 0 && clock_id <> 1 && sigev <> 0 then
      (* BUG #18: a valid sigevent makes the allocation path run before
         the clock id is validated; the invalid id indexes the clock
         table out of bounds. *)
      Panic.panic panic
        ~backtrace:
          [
            "sched/timer/timer_create.c : timer_create : 204";
            "sched/timer/timer_allocate.c : timer_allocate : 101";
          ]
        (Printf.sprintf "clock table overrun: clockid %d with sigevent %d" clock_id sigev)
    else if clock_id <> 0 && clock_id <> 1 then Api.status Kerr.einval
    else begin
      let callback () =
        match Kobj.first_of_kind reg "sem" with
        | Some obj ->
          (match Sem.of_obj obj with
           | Some s -> ignore (Sem.give s : (unit, int64) result)
           | None -> ())
        | None -> ()
      in
      let* obj =
        Swtimer.create ~reg ~wheel:ctx.wheel ~name:"nxtimer" ~kind:Swtimer.Periodic
          ~period:5 ~callback
      in
      Instr.edge i_timer 2;
      Api.created ~kind:"timer" ~handle:obj.Kobj.handle
    end
  in
  let with_timer h f =
    let* obj = lookup "timer" h in
    match Swtimer.of_obj obj with None -> Api.status Kerr.einval | Some tm -> f tm
  in
  let timer_settime args =
    let* h = Api.get_res args 0 in
    let* arm = Api.get_int args 1 in
    with_timer h (fun tm ->
        Instr.cmp i_timer 3 arm 1L;
        if Int64.compare arm 0L > 0 then Swtimer.start tm else Swtimer.stop tm;
        Api.ok_status)
  in
  let timer_delete args =
    let* h = Api.get_res args 0 in
    let* obj = lookup "timer" h in
    with_timer h (fun tm ->
        Instr.edge i_timer 4;
        Swtimer.stop tm;
        Kobj.delete obj;
        Api.ok_status)
  in

  (* --- libc time (bugs #15, #19) --------------------------------------- *)
  let ram_lo = profile.Board.ram_base in
  let ram_hi = profile.Board.ram_base + profile.Board.ram_size in
  let gettimeofday args =
    let* tv_ptr = Api.get_int args 0 in
    let tv_ptr = clamp_int tv_ptr in
    Instr.cmp_i i_libc 0 tv_ptr ram_lo;
    if tv_ptr = 0 then Api.status Kerr.einval
    else if tv_ptr < ram_lo || tv_ptr + 8 > ram_hi then Api.status Kerr.einval
    else if tv_ptr mod 4 <> 0 then
      (* BUG #15: the struct store assumes word alignment; an unaligned
         pointer raises the alignment usage fault. *)
      Fault.usage ~address:tv_ptr "unaligned timeval store in gettimeofday"
    else begin
      Instr.edge i_libc 1;
      let ticks = Sched.ticks ctx.sched in
      Memory.write_u32 ram tv_ptr (Int32.of_int (ticks / 100));
      Memory.write_u32 ram (tv_ptr + 4) (Int32.of_int (ticks mod 100 * 10_000));
      Api.ok_status
    end
  in
  let clock_gettime args =
    let* clock_id = Api.get_int args 0 in
    Instr.cmp i_libc 2 clock_id 0L;
    if clock_id <> 0L && clock_id <> 1L then Api.status Kerr.einval
    else begin
      Instr.edge i_libc 3;
      Api.status (Int64.of_int (Sched.ticks ctx.sched))
    end
  in
  let clock_getres args =
    let* clock_id = Api.get_int args 0 in
    let* res_ptr = Api.get_int args 1 in
    let clock_id = clamp_int clock_id in
    let res_ptr = clamp_int res_ptr in
    Instr.cmp_i i_libc 4 clock_id 0;
    Instr.cmp_i i_libc 5 res_ptr 0;
    if clock_id <> 0 && clock_id <> 1 then begin
      if res_ptr = 0 then
        (* BUG #19: the EINVAL path writes the error detail through the
           result pointer before checking it for NULL. *)
        Fault.bus ~address:0 "NULL res pointer store in clock_getres error path"
      else Api.status Kerr.einval
    end
    else if res_ptr < ram_lo || res_ptr + 8 > ram_hi || res_ptr mod 4 <> 0 then
      Api.status Kerr.einval
    else begin
      Instr.edge i_libc 6;
      Memory.write_u32 ram res_ptr 0l;
      Memory.write_u32 ram (res_ptr + 4) 10_000_000l;
      Api.ok_status
    end
  in

  (* --- sys ------------------------------------------------------------ *)
  let uname _args =
    Instr.edge i_sys 0;
    Klog.info ~os:ctx.os_name "NuttX fc99353 12.5.1";
    Api.ok_status
  in
  let getpid _args =
    Instr.edge i_sys 1;
    Api.status 1L
  in

    let staged_entries =
    Statemach.entries ctx ~instr:(ctx.instr "nuttx/ioctlseq") ~prefix:"nx_ioctl"
      ~resource:"nx_device" ~salt:119
  in
  let staged_entries =
    staged_entries
    @ Statemach.entries ctx ~instr:(ctx.instr "nuttx/i2c") ~prefix:"nx_i2c"
        ~resource:"i2c_dev" ~salt:130
  in

  let staged_entries =
    staged_entries @ install_irq ctx ~instr:(ctx.instr "nuttx/irq") ~prefix:"nx_gpio"
  in

  Api.make_table ~os:"NuttX"
    ([
      entry "task_create"
        [ ("priority", Api.A_int { min = 1L; max = 255L });
          ("stack_size", Api.A_int { min = 256L; max = 8192L });
          ("flavor", Api.A_int { min = 0L; max = 7L }) ]
        (`Resource "task") ~weight:3 ~doc:"Create a task" task_create;
      entry "task_delete" [ ("task", Api.A_res "task") ] `Status ~weight:1
        ~doc:"Delete a task" task_delete;
      entry "task_restart" [ ("task", Api.A_res "task") ] `Status ~weight:1
        ~doc:"Restart a task" task_restart;
      entry "usleep" [ ("usec", Api.A_int { min = 0L; max = 50000L }) ] `Status ~weight:2
        ~doc:"Sleep in microseconds" usleep;
      entry "setenv"
        [ ("name", Api.A_str { max_len = 48 }); ("value", Api.A_str { max_len = 96 }) ]
        `Status ~weight:3 ~doc:"Set an environment variable" setenv;
      entry "unsetenv" [ ("name", Api.A_str { max_len = 48 }) ] `Status ~weight:1
        ~doc:"Remove an environment variable" unsetenv;
      entry "getenv" [ ("name", Api.A_str { max_len = 48 }) ] `Status ~weight:2
        ~doc:"Look up an environment variable" getenv;
      entry "mq_open"
        [ ("capacity", Api.A_int { min = 1L; max = 16L });
          ("msg_size", Api.A_int { min = 1L; max = 64L }) ]
        (`Resource "msgq") ~weight:3 ~doc:"Open a POSIX message queue" mq_open;
      entry "mq_send"
        [ ("queue", Api.A_res "msgq"); ("data", Api.A_buf { max_len = 64 }) ]
        `Status ~weight:3 ~doc:"Send a message" mq_send;
      entry "mq_receive" [ ("queue", Api.A_res "msgq") ] `Status ~weight:2
        ~doc:"Receive a message" mq_receive;
      entry "nxmq_timedsend"
        [ ("queue", Api.A_res "msgq");
          ("data", Api.A_buf { max_len = 64 });
          ("timeout_ms", Api.A_int { min = 0L; max = 4294967295L }) ]
        `Status ~weight:2 ~doc:"Send with a timeout" nxmq_timedsend;
      entry "sem_init" [ ("initial", Api.A_int { min = 0L; max = 32L }) ] (`Resource "sem")
        ~weight:2 ~doc:"Initialise a semaphore" sem_init;
      entry "sem_post" [ ("sem", Api.A_res "sem") ] `Status ~weight:2
        ~doc:"Post a semaphore" sem_post;
      entry "sem_destroy" [ ("sem", Api.A_res "sem") ] `Status ~weight:1
        ~doc:"Destroy a semaphore" sem_destroy;
      entry "nxsem_trywait" [ ("sem", Api.A_res "sem") ] `Status ~weight:2
        ~doc:"Try to take a semaphore" nxsem_trywait;
      entry "timer_create"
        [ ("clock_id", Api.A_int { min = 0L; max = 16L });
          ("sigev", Api.A_int { min = 0L; max = 8L }) ]
        (`Resource "timer") ~weight:2 ~doc:"Create a POSIX timer" timer_create;
      entry "timer_settime"
        [ ("timer", Api.A_res "timer"); ("arm", Api.A_int { min = 0L; max = 1L }) ]
        `Status ~weight:2 ~doc:"Arm or disarm a timer" timer_settime;
      entry "timer_delete" [ ("timer", Api.A_res "timer") ] `Status ~weight:1
        ~doc:"Delete a timer" timer_delete;
      entry "gettimeofday"
        [ ("tv_ptr",
           Api.A_ptr
             { base = profile.Board.ram_base; size = profile.Board.ram_size; null_ok = true })
        ]
        `Status ~weight:2 ~doc:"Read the wall clock into a user struct" gettimeofday;
      entry "clock_gettime" [ ("clock_id", Api.A_int { min = 0L; max = 16L }) ] `Status
        ~weight:2 ~doc:"Read a clock" clock_gettime;
      entry "clock_getres"
        [ ("clock_id", Api.A_int { min = 0L; max = 16L });
          ("res_ptr",
           Api.A_ptr
             { base = profile.Board.ram_base; size = profile.Board.ram_size; null_ok = true })
        ]
        `Status ~weight:2 ~doc:"Query clock resolution" clock_getres;
      entry "nx_open"
        [ ("path", Api.A_str { max_len = 24 });
          ("flags", Api.A_flags [ ("creat", 1L); ("wronly", 2L) ]) ]
        (`Resource "fd") ~weight:3 ~doc:"Open a file on the RAM filesystem" nx_open;
      entry "nx_write"
        [ ("fd", Api.A_res "fd"); ("data", Api.A_buf { max_len = 128 }) ]
        `Status ~weight:3 ~doc:"Append to an open file" nx_write;
      entry "nx_read"
        [ ("fd", Api.A_res "fd"); ("max", Api.A_int { min = 0L; max = 4096L }) ]
        `Status ~weight:2 ~doc:"Read from an open file" nx_read;
      entry "nx_close" [ ("fd", Api.A_res "fd") ] `Status ~weight:2
        ~doc:"Close a descriptor" nx_close;
      entry "nx_unlink" [ ("path", Api.A_str { max_len = 24 }) ] `Status ~weight:1
        ~doc:"Remove a file" nx_unlink;
      entry "uname" [] `Status ~weight:1 ~doc:"Print system identification" uname;
      entry "getpid" [] `Status ~weight:1 ~doc:"Current task id" getpid;
    ]
     @ staged_entries)


let spec =
  {
    Osbuild.os_name = "NuttX";
    version = "fc99353";
    base_kernel_bytes = 177_000;
    modules =
      [
        ("nuttx/task", 24);
        ("nuttx/env", 24);
        ("nuttx/mq", 24);
        ("nuttx/sem", 16);
        ("nuttx/timer", 24);
        ("nuttx/libc", 24);
        ("nuttx/sys", 16);
        ("nuttx/fs", 16);
        ("nuttx/ioctlseq", Statemach.site_count);
        ("nuttx/i2c", Statemach.site_count);
        ("nuttx/irq", Oscommon.irq_site_count);
      ];
    banner = "NuttShell (NSH) NuttX-12.5.1 fc99353";
    kernel_patches = [];
    install;
  }
