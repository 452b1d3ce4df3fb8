open Eof_hw
open Eof_os
module Rng = Eof_util.Rng
module Session = Eof_debug.Session
module Wire = Eof_agent.Wire
module Agent = Eof_agent.Agent
module Machine = Eof_agent.Machine
module Campaign = Eof_core.Campaign
module Crash = Eof_core.Crash
module Feedback = Eof_core.Feedback
module Sancov = Eof_cov.Sancov
module Sitemap = Eof_cov.Sitemap

type guidance = Bp_sampling of int | Edge_feedback

type config = {
  seed : int64;
  iterations : int;
  entry_api : string;
  max_buf : int;
  guidance : guidance;
  sample_modules : string list;
}

type state = {
  config : config;
  build : Osbuild.t;
  machine : Machine.t;
  session : Session.t;
  syms : Osbuild.syms;
  endianness : Arch.endianness;
  entry_index : int;
  bufgen : Bufgen.t;
  rng : Rng.t;
  fb : Feedback.t;  (* ground-truth coverage, for reporting *)
  records : int array;  (* drain scratch, one coverage buffer's worth *)
  corpus : Bufgen.Corpus.store;
  crashes : Crash.Ledger.t;
  mutable crash_events : int;
  mutable executed : int;
  mutable resets : int;
  mutable iteration : int;
  mutable series : Campaign.sample list;
  (* Bp-sampling state *)
  mutable candidate_sites : int list;
  mutable armed_sites : int list;
  mutable sampled_hits : int;
}

let drain_coverage st =
  let layout = Osbuild.covbuf_layout st.build in
  let raw = Machine.read_counted st.machine (Sancov.Layout.records layout) in
  let len =
    Sancov.decode_records_into ~endianness:st.endianness ~count:(String.length raw / 4)
      raw st.records
  in
  Feedback.merge_array st.fb st.records ~len

let record_crash st ~kind ~message =
  st.crash_events <- st.crash_events + 1;
  let crash =
    {
      Crash.os = Osbuild.os_name st.build;
      kind;
      operation = st.config.entry_api;
      scope = "app";
      message;
      backtrace = [];
      detected_by = Crash.Exception_monitor;
      program = "<byte buffer>";
      iteration = st.iteration;
    }
  in
  ignore (Crash.Ledger.add st.crashes crash : bool)

let reboot st =
  ignore (Session.reset_target st.session : (unit, Session.error) result);
  st.resets <- st.resets + 1

(* Keep up to N sampled breakpoints armed on uncovered sites. *)
let rearm_samples st =
  match st.config.guidance with
  | Edge_feedback -> ()
  | Bp_sampling n ->
    let missing = n - List.length st.armed_sites in
    let rec arm k =
      if k > 0 then
        match st.candidate_sites with
        | [] -> ()
        | site :: rest ->
          st.candidate_sites <- rest;
          (match Session.set_breakpoint st.session site with
           | Ok () -> st.armed_sites <- site :: st.armed_sites
           | Error _ -> ());
          arm (k - 1)
    in
    arm missing

type run_result = { completed : bool; crashed : bool; bp_hits : int }

let rec drive st ~budget acc =
  if budget <= 0 then { acc with completed = false }
  else
    match Session.continue_ st.session with
    | Error _ ->
      reboot st;
      { acc with completed = false }
    | Ok (Session.Stopped_breakpoint pc) ->
      if pc = st.syms.Osbuild.sym_loop_back then begin
        ignore (drain_coverage st : int);
        ignore (Session.drain_uart st.session : (string, Session.error) result);
        { acc with completed = true }
      end
      else if pc = st.syms.Osbuild.sym_buf_full then begin
        ignore (drain_coverage st : int);
        drive st ~budget:(budget - 1) acc
      end
      else if pc = st.syms.Osbuild.sym_executor_main then { acc with completed = true }
      else if List.mem pc st.armed_sites then begin
        (* A sampled basic block fired: coverage progress in GDBFuzz's
           eyes. Relocate the breakpoint budget elsewhere. *)
        st.armed_sites <- List.filter (fun s -> s <> pc) st.armed_sites;
        ignore (Session.remove_breakpoint st.session pc : (unit, Session.error) result);
        st.sampled_hits <- st.sampled_hits + 1;
        drive st ~budget:(budget - 1) { acc with bp_hits = acc.bp_hits + 1 }
      end
      else if pc = st.syms.Osbuild.sym_handle_exception then begin
        let message =
          match Session.last_fault st.session with Ok f when f <> "" -> f | _ -> "fault"
        in
        ignore (Session.drain_uart st.session : (string, Session.error) result);
        record_crash st ~kind:Crash.Kernel_panic ~message;
        ignore (Session.continue_ st.session : (Session.stop, Session.error) result);
        reboot st;
        { acc with crashed = true; completed = true }
      end
      else drive st ~budget:(budget - 1) acc
    | Ok (Session.Stopped_fault _) ->
      let message =
        match Session.last_fault st.session with Ok f when f <> "" -> f | _ -> "fault"
      in
      record_crash st ~kind:Crash.Kernel_panic ~message;
      reboot st;
      { acc with crashed = true; completed = true }
    | Ok (Session.Stopped_quantum _) -> drive st ~budget:(budget - 1) acc
    | Ok Session.Target_exited ->
      reboot st;
      { acc with completed = false }

let goto_ready st =
  let rec go budget =
    if budget <= 0 then false
    else
      match Session.continue_ st.session with
      | Ok (Session.Stopped_breakpoint pc) when pc = st.syms.Osbuild.sym_executor_main ->
        true
      | Ok (Session.Stopped_breakpoint pc) when pc = st.syms.Osbuild.sym_buf_full ->
        ignore (drain_coverage st : int);
        go (budget - 1)
      | Ok (Session.Stopped_breakpoint pc) when List.mem pc st.armed_sites ->
        st.armed_sites <- List.filter (fun s -> s <> pc) st.armed_sites;
        ignore (Session.remove_breakpoint st.session pc : (unit, Session.error) result);
        go (budget - 1)
      | Ok (Session.Stopped_breakpoint _) -> go (budget - 1)
      | Ok (Session.Stopped_fault _) ->
        reboot st;
        go (budget - 1)
      | Ok (Session.Stopped_quantum _) -> go (budget - 1)
      | Ok Session.Target_exited ->
        reboot st;
        go (budget - 1)
      | Error _ ->
        reboot st;
        go (budget - 1)
  in
  go 30

let write_input st buf =
  let wire = [ { Wire.api_index = st.entry_index; args = [ Wire.W_str buf ] } ] in
  match Wire.encode ~endianness:st.endianness wire with
  | Error _ -> false
  | Ok payload ->
    let header = Bytes.create 8 in
    (match st.endianness with
     | Arch.Little ->
       Bytes.set_int32_le header 0 Wire.magic;
       Bytes.set_int32_le header 4 (Int32.of_int (String.length payload))
     | Arch.Big ->
       Bytes.set_int32_be header 0 Wire.magic;
       Bytes.set_int32_be header 4 (Int32.of_int (String.length payload)));
    (match
       Session.write_mem st.session ~addr:(Osbuild.mailbox_base st.build)
         (Bytes.to_string header ^ payload)
     with
     | Ok () -> true
     | Error _ -> false)

let sample st =
  st.series <-
    {
      Campaign.iteration = st.iteration;
      virtual_s = Machine.virtual_elapsed_s st.machine;
      coverage = Feedback.covered st.fb;
    }
    :: st.series

(* Iterations between coverage samples. *)
let snapshot_every = 10

let run config build =
  let table = Osbuild.api_signatures build in
  let entry_index =
    let rec find i = function
      | [] -> None
      | (e : Eof_rtos.Api.entry) :: _ when e.Eof_rtos.Api.name = config.entry_api -> Some i
      | _ :: rest -> find (i + 1) rest
    in
    find 0 table.Eof_rtos.Api.entries
  in
  match entry_index with
  | None ->
    Error (Eof_util.Eof_error.config (Printf.sprintf "no entry API %s" config.entry_api))
  | Some entry_index ->
    (match Machine.create build with
     | Error e -> Error e
     | Ok machine ->
       let rng = Rng.create config.seed in
       let session = Machine.session machine in
       let syms = Osbuild.syms build in
       let candidate_sites =
         List.concat_map
           (fun m ->
             match Osbuild.module_block build m with
             | None -> []
             | Some block ->
               List.init block.Sitemap.count (fun i -> Sitemap.site_addr block i))
           config.sample_modules
       in
       let candidate_sites =
         let arr = Array.of_list candidate_sites in
         Rng.shuffle_in_place rng arr;
         Array.to_list arr
       in
       let st =
         {
           config;
           build;
           machine;
           session;
           syms;
           endianness = (Board.profile (Osbuild.board build)).Board.arch.Arch.endianness;
           entry_index;
           bufgen = Bufgen.create ~rng:(Rng.split rng) ~max_len:config.max_buf;
           rng;
           fb = Feedback.create ~edge_capacity:(Osbuild.edge_capacity build);
           records =
             Array.make (Osbuild.covbuf_layout build).Sancov.Layout.capacity_records 0;
           corpus = Bufgen.Corpus.create ~rng:(Rng.split rng);
           crashes = Crash.Ledger.create ();
           crash_events = 0;
           executed = 0;
           resets = 0;
           iteration = 0;
           series = [];
           candidate_sites;
           armed_sites = [];
           sampled_hits = 0;
         }
       in
       let arm addr =
         ignore (Session.set_breakpoint session addr : (unit, Session.error) result)
       in
       arm syms.Osbuild.sym_executor_main;
       arm syms.Osbuild.sym_loop_back;
       arm syms.Osbuild.sym_buf_full;
       arm syms.Osbuild.sym_handle_exception;
       while st.iteration < config.iterations do
         st.iteration <- st.iteration + 1;
         if goto_ready st then begin
           rearm_samples st;
           let input =
             match Bufgen.Corpus.pick st.corpus with
             | Some seed when Rng.chance st.rng 0.8 -> Bufgen.havoc st.bufgen seed
             | _ -> Bufgen.fresh st.bufgen
           in
           let before = Feedback.covered st.fb in
           if write_input st input then begin
             let result =
               drive st ~budget:100 { completed = false; crashed = false; bp_hits = 0 }
             in
             if result.completed then st.executed <- st.executed + 1;
             let interesting =
               match config.guidance with
               | Bp_sampling _ -> result.bp_hits > 0 || result.crashed
               | Edge_feedback -> Feedback.covered st.fb > before || result.crashed
             in
             if interesting then ignore (Bufgen.Corpus.add st.corpus input : bool)
           end
         end;
         if st.iteration mod snapshot_every = 0 then sample st
       done;
       sample st;
       Ok
         {
           Campaign.os = Osbuild.os_name build;
           coverage = Feedback.covered st.fb;
           series = List.rev st.series;
           crashes = Crash.Ledger.to_list st.crashes;
           crash_events = st.crash_events;
           executed_programs = st.executed;
           resets = st.resets;
           reflashes = 0;
           stalls = 0;
           timeouts = 0;
           corpus_size = Bufgen.Corpus.size st.corpus;
           virtual_s = Machine.virtual_elapsed_s machine;
           iterations_done = st.iteration;
           coverage_bitmap = Feedback.snapshot st.fb;
           final_corpus = [];
           abort_cause = None;
         })
