open Eof_hw
open Eof_exec
open Eof_os
module Rng = Eof_util.Rng
module Wire = Eof_agent.Wire
module Agent = Eof_agent.Agent
module Api = Eof_rtos.Api
module Campaign = Eof_core.Campaign
module Crash = Eof_core.Crash
module Feedback = Eof_core.Feedback
module Sancov = Eof_cov.Sancov

let build_for spec = Osbuild.make ~board_profile:Profiles.qemu_pok spec

let decode_genome ~table genome =
  let entries = Array.of_list table.Api.entries in
  let n = Array.length entries in
  let pos = ref 0 in
  let len = String.length genome in
  let byte () =
    if !pos >= len then None
    else begin
      let b = Char.code genome.[!pos] in
      incr pos;
      Some b
    end
  in
  let calls = ref [] in
  let call_index = ref 0 in
  let continue = ref true in
  while !continue do
    match byte () with
    | None -> continue := false
    | Some b ->
      let api_index = b mod n in
      let entry = entries.(api_index) in
      let args =
        List.map
          (fun (_, ty) ->
            match ty with
            | Api.A_int _ | Api.A_flags _ | Api.A_ptr _ ->
              (* four raw bytes, no range knowledge *)
              let v = ref 0L in
              for _ = 1 to 4 do
                match byte () with
                | Some b -> v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int b)
                | None -> ()
              done;
              Wire.W_int !v
            | Api.A_str _ | Api.A_buf _ ->
              let slice_len = match byte () with Some b -> b mod 64 | None -> 0 in
              let available = max 0 (len - !pos) in
              let take = min slice_len available in
              let s = String.sub genome !pos take in
              pos := !pos + take;
              Wire.W_str s
            | Api.A_res _ ->
              (match byte () with
               | Some b when !call_index > 0 -> Wire.W_res (b mod !call_index)
               | _ -> Wire.W_int 0L))
          entry.Api.args
      in
      calls := { Wire.api_index; args } :: !calls;
      incr call_index;
      if !call_index >= Wire.max_calls then continue := false
  done;
  List.rev !calls

let run ~seed ~iterations ?(snapshot_every = 10) build =
  let table = Osbuild.api_signatures build in
  let rng = Rng.create seed in
  let board = Osbuild.board build in
  let syms = Osbuild.syms build in
  let endianness = (Board.profile board).Board.arch.Arch.endianness in
  let engine =
    Engine.create ~board ~fault_vector:syms.Osbuild.sym_handle_exception
      ~entry:(Agent.entry build)
  in
  Engine.set_breakpoint engine syms.Osbuild.sym_executor_main;
  Engine.set_breakpoint engine syms.Osbuild.sym_loop_back;
  Engine.set_breakpoint engine syms.Osbuild.sym_buf_full;
  let fb = Feedback.create ~edge_capacity:(Osbuild.edge_capacity build) in
  let bufgen = Bufgen.create ~rng:(Rng.split rng) ~max_len:192 in
  let corpus = Bufgen.Corpus.create ~rng:(Rng.split rng) in
  let crash_table = Hashtbl.create 16 in
  let crash_order = ref [] in
  let crash_events = ref 0 in
  let executed = ref 0 in
  let resets = ref 0 in
  let series = ref [] in
  let iteration = ref 0 in
  let layout = Osbuild.covbuf_layout build in
  let records = Array.make layout.Sancov.Layout.capacity_records 0 in
  let drain_coverage () =
    match
      Board.read_counted board
        ~count_addr:(Sancov.Layout.write_index_addr layout)
        ~data_addr:(Sancov.Layout.records_addr layout)
        ~stride:4 ~max_count:layout.Sancov.Layout.capacity_records ~reset:true
    with
    | Error _ -> 0
    | Ok (_, raw) ->
      let len =
        Sancov.decode_records_into ~endianness ~count:(String.length raw / 4) raw records
      in
      Feedback.merge_array fb records ~len
  in
  let record_crash message =
    incr crash_events;
    let crash =
      {
        Crash.os = Osbuild.os_name build;
        kind = Crash.Kernel_panic;
        operation = "genome";
        scope = "vm";
        message;
        backtrace = [];
        detected_by = Crash.Timeout_only;
        program = "<genome>";
        iteration = !iteration;
      }
    in
    let key = Crash.dedup_key crash in
    if not (Hashtbl.mem crash_table key) then begin
      Hashtbl.replace crash_table key crash;
      crash_order := crash :: !crash_order
    end
  in
  let reset_vm () =
    Board.reset board;
    Engine.reset engine;
    incr resets
  in
  let rec run_to ?(strikes = 0) target budget =
    if budget <= 0 || strikes >= 2 then `Stuck
    else
      match Engine.run engine ~fuel:100_000 with
      | Engine.Breakpoint_hit pc when pc = target -> `There
      | Engine.Breakpoint_hit pc when pc = syms.Osbuild.sym_buf_full ->
        ignore (drain_coverage () : int);
        run_to ~strikes target (budget - 1)
      | Engine.Breakpoint_hit _ -> run_to ~strikes target (budget - 1)
      | Engine.Faulted _ | Engine.Exited -> `Dead
      | Engine.Fuel_exhausted -> run_to ~strikes:(strikes + 1) target (budget - 1)
  in
  let sample () =
    series :=
      {
        Campaign.iteration = !iteration;
        virtual_s = Clock.now_s (Board.clock board);
        coverage = Feedback.covered fb;
      }
      :: !series
  in
  while !iteration < iterations do
    incr iteration;
    (match run_to syms.Osbuild.sym_executor_main 20 with
     | `Dead ->
       record_crash "VM crashed";
       reset_vm ()
     | `Stuck ->
       record_crash "VM timeout";
       reset_vm ()
     | `There ->
       let genome =
         match Bufgen.Corpus.pick corpus with
         | Some seed when Rng.chance rng 0.8 -> Bufgen.havoc bufgen seed
         | _ -> Bufgen.fresh bufgen
       in
       let before = Feedback.covered fb in
       let program = decode_genome ~table genome in
       (match
          Wire.write_to_ram ~mem:(Board.ram board) ~endianness
            ~base:(Osbuild.mailbox_base build) ~limit:(Agent.max_program_bytes build)
            program
        with
        | Error _ -> ()
        | Ok () ->
          (match run_to syms.Osbuild.sym_loop_back 20 with
           | `There ->
             incr executed;
             ignore (drain_coverage () : int)
           | `Dead ->
             incr executed;
             record_crash "VM crashed";
             reset_vm ()
           | `Stuck ->
             record_crash "VM timeout";
             reset_vm ());
          if Feedback.covered fb > before then
            ignore (Bufgen.Corpus.add corpus genome : bool)));
    if !iteration mod snapshot_every = 0 then sample ()
  done;
  sample ();
  Ok
    {
      Campaign.os = Osbuild.os_name build;
      coverage = Feedback.covered fb;
      series = List.rev !series;
      crashes = List.rev !crash_order;
      crash_events = !crash_events;
      executed_programs = !executed;
      resets = !resets;
      reflashes = 0;
      stalls = 0;
      timeouts = 0;
      corpus_size = Bufgen.Corpus.size corpus;
      virtual_s = Clock.now_s (Board.clock board);
      iterations_done = !iteration;
      coverage_bitmap = Feedback.snapshot fb;
      final_corpus = [];
      abort_cause = None;
    }
