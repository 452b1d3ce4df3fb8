open Eof_hw
open Eof_exec
open Eof_os
module Wire = Eof_agent.Wire
module Agent = Eof_agent.Agent
module Campaign = Eof_core.Campaign
module Crash = Eof_core.Crash
module Feedback = Eof_core.Feedback
module Prog = Eof_core.Prog
module Sancov = Eof_cov.Sancov

type stop = Dead | Stuck

type death = { kind : Crash.kind; operation : string; message : string; program : string }

type 'input tool = {
  next : unit -> 'input;
  program : 'input -> Wire.program;
  death : stop -> 'input option -> death;
  admit : 'input -> new_edges:int -> unit;
  corpus_size : unit -> int;
  final_corpus : unit -> Prog.t list;
}

(* Iterations between coverage samples. *)
let snapshot_every = 10

let run ~iterations build tool =
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
  let layout = Osbuild.covbuf_layout build in
  let records = Array.make layout.Sancov.Layout.capacity_records 0 in
  let crashes = Crash.Ledger.create () in
  let crash_events = ref 0 in
  let executed = ref 0 in
  let resets = ref 0 in
  let stalls = ref 0 in
  let iteration = ref 0 in
  let series = ref [] in
  let current = ref None in
  (* Shared-memory coverage drain: the board's own counted read of the
     KCOV-style buffer, straight out of guest RAM. *)
  let { Sancov.Layout.count_addr; data_addr; stride; max_count } = Sancov.Layout.records layout in
  let drain () =
    match Board.read_counted board ~count_addr ~data_addr ~stride ~max_count ~reset:true with
    | Error _ -> ()
    | Ok (_, raw) ->
      let len =
        Sancov.decode_records_into ~endianness ~count:(String.length raw / 4) raw records
      in
      ignore (Feedback.merge_array fb records ~len : int)
  in
  (* A dead or wedged VM is a crash event: the tool names it (before the
     reset wipes the RAM it may read), then the VM starts over. *)
  let fail stop =
    let d = tool.death stop !current in
    incr crash_events;
    if d.kind = Crash.Hang then incr stalls;
    ignore
      (Crash.Ledger.add crashes
         {
           Crash.os = Osbuild.os_name build;
           kind = d.kind;
           operation = d.operation;
           scope = "vm";
           message = d.message;
           backtrace = [];
           detected_by = Crash.Timeout_only;
           program = d.program;
           iteration = !iteration;
         }
        : bool);
    Board.reset board;
    Engine.reset engine;
    incr resets
  in
  (* Run the VM until the agent parks at [target]. The timeout
     mechanism is a strike counter: a VM that burns two full quanta
     without reaching a binding point is declared wedged — an emulator
     harness has no finer progress signal. *)
  let rec run_to ?(strikes = 0) target budget =
    if budget <= 0 || strikes >= 2 then Error Stuck
    else
      match Engine.run engine ~fuel:100_000 with
      | Engine.Breakpoint_hit pc when pc = target -> Ok ()
      | Engine.Breakpoint_hit pc when pc = syms.Osbuild.sym_buf_full ->
        drain ();
        run_to ~strikes target (budget - 1)
      | Engine.Breakpoint_hit _ -> run_to ~strikes target (budget - 1)
      | Engine.Faulted _ | Engine.Exited -> Error Dead
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
     | Error stop -> fail stop
     | Ok () ->
       let input = tool.next () in
       current := Some input;
       let before = Feedback.covered fb in
       (match
          Wire.write_to_ram ~mem:(Board.ram board) ~endianness
            ~base:(Osbuild.mailbox_base build) ~limit:(Agent.max_program_bytes build)
            (tool.program input)
        with
        | Error _ -> ()
        | Ok () ->
          (match run_to syms.Osbuild.sym_loop_back 20 with
           | Ok () ->
             incr executed;
             drain ()
           | Error Dead ->
             incr executed;
             fail Dead
           | Error Stuck -> fail Stuck);
          let new_edges = Feedback.covered fb - before in
          if new_edges > 0 then tool.admit input ~new_edges));
    if !iteration mod snapshot_every = 0 then sample ()
  done;
  sample ();
  {
    Campaign.os = Osbuild.os_name build;
    coverage = Feedback.covered fb;
    series = List.rev !series;
    crashes = Crash.Ledger.to_list crashes;
    crash_events = !crash_events;
    executed_programs = !executed;
    resets = !resets;
    reflashes = 0;
    stalls = !stalls;
    timeouts = !stalls;
    corpus_size = tool.corpus_size ();
    virtual_s = Clock.now_s (Board.clock board);
    iterations_done = !iteration;
    coverage_bitmap = Feedback.snapshot fb;
    final_corpus = tool.final_corpus ();
    abort_cause = None;
  }
