open Eof_hw
open Eof_exec
open Eof_os
module Rng = Eof_util.Rng
module Wire = Eof_agent.Wire
module Agent = Eof_agent.Agent
module Campaign = Eof_core.Campaign
module Crash = Eof_core.Crash
module Feedback = Eof_core.Feedback
module Gen = Eof_core.Gen
module Prog = Eof_core.Prog
module Sancov = Eof_cov.Sancov

(* The hand-written core-kernel specs Tardis ships lack the
   driver/middleware configuration surfaces (staged device sequences,
   GPIO control) and the pseudo-syscalls the paper derives with LLM
   assistance — which is exactly the spec-breadth gap the evaluation
   attributes EOF's advantage to. *)
let driver_surfaces prefixes =
  List.concat_map (fun p -> [ p ^ "_open"; p ^ "_step" ]) prefixes

let unsupported_calls = function
  | "Zephyr" ->
    [ "sys_heap_stress"; "k_msgq_purge"; "syz_json_deep_encode";
      "gpio_irq_enable"; "gpio_irq_disable" ]
    @ driver_surfaces [ "zpipe"; "zspi"; "zadc" ]
  | "RT-Thread" ->
    [
      "rt_service_poll";
      "rt_mp_create"; "rt_mp_alloc"; "rt_mp_free";
      "rt_smem_alloc"; "rt_smem_setname"; "rt_smem_free";
      "rt_serial_ctrl"; "rt_device_write";
      "syz_create_bind_socket"; "sal_listen"; "sal_sendto"; "sal_closesocket";
      "rt_event_delete"; "rt_pin_irq_enable"; "rt_pin_irq_disable";
    ]
    @ driver_surfaces [ "rt_devcfg"; "rt_can" ]
  | "NuttX" ->
    [ "setenv"; "nxmq_timedsend"; "sem_destroy"; "clock_getres";
      "nx_gpio_irq_enable"; "nx_gpio_irq_disable" ]
    @ driver_surfaces [ "nx_ioctl"; "nx_i2c" ]
  | "FreeRTOS" ->
    [ "load_partitions"; "syz_http_get"; "syz_http_post_json"; "http_request";
      "gpio_isr_irq_enable"; "gpio_isr_irq_disable" ]
    @ driver_surfaces [ "wifi_prov"; "ble_gatt"; "ota_update" ]
  | "PoKOS" -> []
  | _ -> []

let build_for spec = Osbuild.make ~board_profile:Profiles.qemu_mps2 spec

type state = {
  build : Osbuild.t;
  board : Board.t;
  engine : Engine.t;
  endianness : Arch.endianness;
  syms : Osbuild.syms;
  fb : Feedback.t;
  records : int array;  (* drain scratch, one coverage buffer's worth *)
  gen : Gen.t;
  rng : Rng.t;
  corpus : Eof_core.Corpus.t;
  crash_table : (string, Crash.t) Hashtbl.t;
  mutable crash_order : Crash.t list;
  mutable crash_events : int;
  mutable executed : int;
  mutable resets : int;
  mutable stalls : int;
  mutable iteration : int;
  mutable series : Campaign.sample list;
  mutable current_prog : Prog.t;
}

(* Shared-memory coverage drain: the board's own counted read of the
   KCOV-style buffer, straight out of guest RAM. *)
let drain_coverage st =
  let layout = Osbuild.covbuf_layout st.build in
  match
    Board.read_counted st.board
      ~count_addr:(Sancov.Layout.write_index_addr layout)
      ~data_addr:(Sancov.Layout.records_addr layout)
      ~stride:4 ~max_count:layout.Sancov.Layout.capacity_records ~reset:true
  with
  | Error _ -> 0
  | Ok (_, raw) ->
    let len =
      Sancov.decode_records_into ~endianness:st.endianness ~count:(String.length raw / 4)
        raw st.records
    in
    Feedback.merge_array st.fb st.records ~len

let last_call_name st =
  let idx =
    Int32.to_int (Memory.read_u32 (Board.ram st.board) (Agent.progress_addr st.build))
  in
  if idx < 0 || idx >= List.length st.current_prog then "unknown"
  else (List.nth st.current_prog idx).Prog.spec.Eof_spec.Ast.name

let record_vm_death st ~kind ~message =
  st.crash_events <- st.crash_events + 1;
  let crash =
    {
      Crash.os = Osbuild.os_name st.build;
      kind;
      operation = last_call_name st;
      scope = "vm";
      message;
      backtrace = [];
      detected_by = Crash.Timeout_only;
      program = Prog.to_string st.current_prog;
      iteration = st.iteration;
    }
  in
  let key = Crash.dedup_key crash in
  if not (Hashtbl.mem st.crash_table key) then begin
    Hashtbl.replace st.crash_table key crash;
    st.crash_order <- crash :: st.crash_order
  end

let reset_vm st =
  Board.reset st.board;
  Engine.reset st.engine;
  st.resets <- st.resets + 1

(* Run the VM until the agent parks at a given binding point. The
   timeout mechanism is a strike counter: a VM that burns two full
   quanta without reaching a binding point is declared wedged — Tardis
   has no finer progress signal. *)
let rec run_to ?(strikes = 0) st ~target ~budget =
  if budget <= 0 || strikes >= 2 then `Stuck
  else
    match Engine.run st.engine ~fuel:100_000 with
    | Engine.Breakpoint_hit pc when pc = target -> `There
    | Engine.Breakpoint_hit pc when pc = st.syms.Osbuild.sym_buf_full ->
      ignore (drain_coverage st : int);
      run_to ~strikes st ~target ~budget:(budget - 1)
    | Engine.Breakpoint_hit _ -> run_to ~strikes st ~target ~budget:(budget - 1)
    | Engine.Faulted _ -> `Dead
    | Engine.Exited -> `Dead
    | Engine.Fuel_exhausted ->
      run_to ~strikes:(strikes + 1) st ~target ~budget:(budget - 1)

let sample st =
  st.series <-
    {
      Campaign.iteration = st.iteration;
      virtual_s = Clock.now_s (Board.clock st.board);
      coverage = Feedback.covered st.fb;
    }
    :: st.series

let run ~seed ~iterations ?(snapshot_every = 10) build =
  let table = Osbuild.api_signatures build in
  match Eof_spec.Synth.validated_of_api table with
  | Error e -> Error (Eof_util.Eof_error.config e)
  | Ok spec ->
    let os = Osbuild.os_name build in
    let unsupported = unsupported_calls os in
    let spec =
      Campaign.filter_spec spec
        (List.filter_map
           (fun (c : Eof_spec.Ast.call) ->
             if List.mem c.Eof_spec.Ast.name unsupported then None
             else Some c.Eof_spec.Ast.name)
           spec.Eof_spec.Ast.calls)
    in
    let rng = Rng.create seed in
    let board = Osbuild.board build in
    let syms = Osbuild.syms build in
    let engine =
      Engine.create ~board ~fault_vector:syms.Osbuild.sym_handle_exception
        ~entry:(Agent.entry build)
    in
    Engine.set_breakpoint engine syms.Osbuild.sym_executor_main;
    Engine.set_breakpoint engine syms.Osbuild.sym_loop_back;
    Engine.set_breakpoint engine syms.Osbuild.sym_buf_full;
    let st =
      {
        build;
        board;
        engine;
        endianness = (Board.profile board).Board.arch.Arch.endianness;
        syms;
        fb = Feedback.create ~edge_capacity:(Osbuild.edge_capacity build);
        records =
          Array.make (Osbuild.covbuf_layout build).Sancov.Layout.capacity_records 0;
        gen = Gen.create ~rng:(Rng.split rng) ~spec ~table ();
        rng;
        corpus = Eof_core.Corpus.create ~rng:(Rng.split rng) ();
        crash_table = Hashtbl.create 16;
        crash_order = [];
        crash_events = 0;
        executed = 0;
        resets = 0;
        stalls = 0;
        iteration = 0;
        series = [];
        current_prog = [];
      }
    in
    while st.iteration < iterations do
      st.iteration <- st.iteration + 1;
      (match run_to st ~target:syms.Osbuild.sym_executor_main ~budget:20 with
       | `Dead ->
         record_vm_death st ~kind:Crash.Kernel_panic ~message:"VM stopped responding";
         reset_vm st
       | `Stuck ->
         st.stalls <- st.stalls + 1;
         record_vm_death st ~kind:Crash.Hang ~message:"VM timeout";
         reset_vm st
       | `There ->
         let before = Feedback.covered st.fb in
         let crashes_before = Hashtbl.length st.crash_table in
         let prog =
           if (not (Eof_core.Corpus.is_empty st.corpus)) && Rng.chance st.rng 0.7 then
             match Eof_core.Corpus.pick st.corpus with
             | Some p -> Gen.mutate st.gen p ~max_len:12
             | None -> Gen.generate st.gen ~max_len:12
           else Gen.generate st.gen ~max_len:12
         in
         st.current_prog <- prog;
         (match
            Wire.write_to_ram ~mem:(Board.ram board) ~endianness:st.endianness
              ~base:(Osbuild.mailbox_base build)
              ~limit:(Agent.max_program_bytes build)
              (Prog.to_wire prog)
          with
          | Error _ -> ()
          | Ok () ->
            (match run_to st ~target:syms.Osbuild.sym_loop_back ~budget:20 with
             | `There ->
               st.executed <- st.executed + 1;
               ignore (drain_coverage st : int)
             | `Dead ->
               st.executed <- st.executed + 1;
               record_vm_death st ~kind:Crash.Kernel_panic
                 ~message:"VM stopped responding";
               reset_vm st
             | `Stuck ->
               st.stalls <- st.stalls + 1;
               record_vm_death st ~kind:Crash.Hang ~message:"VM timeout";
               reset_vm st);
            let new_edges = Feedback.covered st.fb - before in
            let fresh_crash = Hashtbl.length st.crash_table > crashes_before in
            (* Coverage guides Tardis; crash signals do not (it has no
               monitor to tell it which inputs crashed usefully). *)
            if new_edges > 0 then
              ignore
                (Eof_core.Corpus.add st.corpus ~prog ~new_edges ~crashed:false : bool);
            ignore fresh_crash));
      if st.iteration mod snapshot_every = 0 then sample st
    done;
    sample st;
    Ok
      {
        Campaign.os;
        coverage = Feedback.covered st.fb;
        series = List.rev st.series;
        crashes = List.rev st.crash_order;
        crash_events = st.crash_events;
        executed_programs = st.executed;
        resets = st.resets;
        reflashes = 0;
        stalls = st.stalls;
        timeouts = st.stalls;
        corpus_size = Eof_core.Corpus.size st.corpus;
        virtual_s = Clock.now_s (Board.clock board);
        iterations_done = st.iteration;
        coverage_bitmap = Feedback.snapshot st.fb;
        final_corpus = Eof_core.Corpus.progs st.corpus;
        abort_cause = None;
      }
