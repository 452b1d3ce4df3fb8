open Eof_hw
open Eof_os
module Rng = Eof_util.Rng
module Session = Eof_debug.Session
module Wire = Eof_agent.Wire
module Agent = Eof_agent.Agent
module Machine = Eof_agent.Machine
module Sancov = Eof_cov.Sancov
module Obs = Eof_obs.Obs
module Eof_error = Eof_util.Eof_error

(* How the campaign gets the target back to a known-good state.
   [Ladder]: the original escalation ladder only — no snapshot is ever
   armed, so the reflash rung rewrites every partition from the golden
   image. [Fresh_per_program]: arm a pristine copy-on-write snapshot
   right after install and rewind to it before {e every} payload, so no
   target-side state leaks between programs (host-side feedback and
   corpus persist — that is the point of the host keeping them); the
   ladder's reflash rung then restores O(dirty pages) instead of
   O(image). *)
type reset_policy = Ladder | Fresh_per_program

let reset_policy_name = function
  | Ladder -> "ladder"
  | Fresh_per_program -> "fresh-per-program"

let reset_policy_of_name s =
  match String.lowercase_ascii s with
  | "ladder" -> Ok Ladder
  | "fresh-per-program" | "fresh" -> Ok Fresh_per_program
  | other ->
    Error
      (Printf.sprintf "unknown reset policy %S (expected ladder|fresh-per-program)" other)

(* Ceiling for P(mutate a corpus seed); the actual split tracks how
   often fresh generation still finds new coverage. *)
let mutation_bias = 0.8

(* Preventive reboot period: without it a long-lived boot slowly
   exhausts kernel tables and the heap (objects accumulate across test
   cases), starving every later test case. *)
let reboot_every = 150

type config = {
  seed : int64;
  iterations : int;
  feedback : bool;
  dep_aware : bool;
  stall_watchdog : bool;
  max_prog_len : int;
  snapshot_every : int;
  api_filter : string list option;
  irq_injection : bool;
  initial_seeds : Prog.t list;
  batch_link : bool;
  fault_rate : float;
  fault_seed : int64;
  backend : Machine.backend;
  reset_policy : reset_policy;
  schedule : Corpus.schedule;
}

let default_config =
  {
    seed = 1L;
    iterations = 400;
    feedback = true;
    dep_aware = true;
    stall_watchdog = true;
    max_prog_len = 12;
    snapshot_every = 10;
    api_filter = None;
    irq_injection = false;
    initial_seeds = [];
    batch_link = true;
    fault_rate = 0.;
    fault_seed = 0xFA0175EEDL;
    backend = Machine.Link;
    reset_policy = Ladder;
    schedule = Corpus.Uniform;
  }

type sample = { iteration : int; virtual_s : float; coverage : int }

type outcome = {
  os : string;
  coverage : int;
  series : sample list;
  crashes : Crash.t list;
  crash_events : int;
  executed_programs : int;
  resets : int;
  reflashes : int;
  stalls : int;
  timeouts : int;
  corpus_size : int;
  virtual_s : float;
  iterations_done : int;
  coverage_bitmap : Eof_util.Bitset.t;
  final_corpus : Prog.t list;
  abort_cause : Eof_error.t option;
}

(* How target-side evidence (coverage records, cmp ring, UART) reaches
   the host, chosen by [config.batch_link] alone. [Per_request]: one
   {!Machine.read_counted} (or UART drain) per buffer, performed at the
   loop's consumption points — the reference the fused path is tested
   against. [Fused]: every continue carries the full drain
   ({!Machine.continue_and_drain}: one vBatch exchange on the link, the
   probe's own counted reads natively) and the data parks in the pend_*
   accumulators until those same points. Both modes and both backends
   decode and commit through the same accumulator path; that shared
   path is what makes them digest-identical. *)
type drain_mode =
  | Per_request
  | Fused

type state = {
  config : config;
  build : Osbuild.t;
  machine : Machine.t;
  mode : drain_mode;
  syms : Osbuild.syms;
  endianness : Arch.endianness;
  gen : Gen.t;
  rng : Rng.t;
  fb : Feedback.t;
  corpus : Corpus.t;
  target : Corpus.target;
      (* this campaign's personality x API-surface identity, the key its
         seeds' frontier entries live under *)
  mutable sched : (Prog.t * int) option;
      (* active energy grant: the scheduled seed and its remaining
         mutation budget before the next corpus draw (always [None]
         under the uniform schedule) *)
  ledger : Crash.Ledger.t;
  mutable crash_events : int;
  mutable executed_programs : int;
  mutable resets : int;
  mutable reflashes : int;
  mutable stalls : int;
  mutable timeouts : int;
  mutable iteration : int;
  mutable series : sample list;
  mutable current_prog : Prog.t;
  mutable focus : (Prog.t * int) option;
      (* AFL-style focused phase: after a new-coverage find, mutate that
         program for a burst before returning to corpus sampling *)
  mutable last_cmp_pairs : (int64 * int64) list;
      (* operand pairs recorded during the most recent execution *)
  mutable pending : Prog.t list;
      (* deterministic input-to-state children queued to run next *)
  mutable pending_len : int;  (* List.length pending *)
  pending_hashes : (int, unit) Hashtbl.t;
  mutable last_was_child : bool;
      (* the program that just ran was an input-to-state child: such
         programs must not spawn further children (the patch cascade
         otherwise monopolizes the budget) *)
  mutable fresh_yield : float;
      (* EWMA of "a freshly generated program found new coverage":
         drives the explore/exploit split (explore while it pays) *)
  mutable last_was_fresh : bool;
  liveness : Liveness.t;
  mutable pend_rec : int array;  (* drained, uncommitted edge records *)
  mutable pend_rec_len : int;
  mutable pend_cmp_a : int64 array;  (* drained, uncommitted operand pairs *)
  mutable pend_cmp_b : int64 array;
  mutable pend_cmp_len : int;
  pend_log : Buffer.t;  (* drained, unconsumed UART output *)
  mutable pend_write : (int * string) option;
      (* a staged mailbox image, delivered as a write op inside the next
         fused vBatch instead of its own exchange *)
  img_buf : Buffer.t;
      (* reused wire-encode + mailbox-image scratch, pre-sized once so
         the per-payload path allocates only the final image string *)
  mutable current_ops : string array;
      (* call names of current_prog, indexed once at selection so the
         per-crash progress lookup is O(1) instead of O(n^2) List.nth *)
  mutable consecutive_failures : int;
      (* unrecoverable link failures in a row; 5 aborts the campaign *)
  mutable rung : int;
      (* current height on the recovery escalation ladder; 0 = healthy,
         reset by any clean stop, climbed by each link failure *)
  mutable dead : bool;
      (* the ladder was exhausted: this board is gone for good *)
  mutable abort_cause : Eof_error.t option;
  obs : Obs.t;
  payload_span : Obs.span_kind;
  c_payloads : Obs.Counter.t;
  c_crash_events : Obs.Counter.t;
  c_corpus_admits : Obs.Counter.t;
  c_sched_grants : Obs.Counter.t;
  c_resyncs : Obs.Counter.t;
  c_rung_resets : Obs.Counter.t;
  c_rung_reflashes : Obs.Counter.t;
  c_dead : Obs.Counter.t;
}

(* --- small helpers ---------------------------------------------------- *)

(* Park drained data in the pending accumulators. Fused mode absorbs
   every stop's drain here and commits at exactly the loop points where
   the per-request path performs its reads; the per-request path
   absorbs what it just read and commits at once, so both share one
   decode-and-commit path.
   Because every fused drain resets the target-side counters, the
   pending data is always exactly what the per-request host would still
   find in target RAM — so a board reset, which clears RAM and the UART
   FIFO, must discard the pending accumulators too (see {!reboot}).
   Decoding goes straight into the reusable scratch arrays: nothing
   proportional to the record count is allocated on this path. *)
let absorb_records st ~count raw =
  if count > 0 then begin
    let need = st.pend_rec_len + count in
    if Array.length st.pend_rec < need then begin
      let grown = Array.make (max need (2 * Array.length st.pend_rec)) 0 in
      Array.blit st.pend_rec 0 grown 0 st.pend_rec_len;
      st.pend_rec <- grown
    end;
    st.pend_rec_len <-
      st.pend_rec_len
      + Sancov.decode_records_into ~pos:st.pend_rec_len ~endianness:st.endianness ~count
          raw st.pend_rec
  end

let absorb_cmp st ~count raw =
  if count > 0 then begin
    let need = st.pend_cmp_len + count in
    if Array.length st.pend_cmp_a < need then begin
      let grow a =
        let g = Array.make (max need (2 * Array.length a)) 0L in
        Array.blit a 0 g 0 st.pend_cmp_len;
        g
      in
      st.pend_cmp_a <- grow st.pend_cmp_a;
      st.pend_cmp_b <- grow st.pend_cmp_b
    end;
    st.pend_cmp_len <-
      st.pend_cmp_len
      + Sancov.decode_cmp_ring_into ~pos:st.pend_cmp_len ~endianness:st.endianness ~count
          raw ~a:st.pend_cmp_a ~b:st.pend_cmp_b
  end

let absorb_drained st (d : Machine.drained) =
  absorb_records st ~count:d.Machine.n_records d.Machine.records_raw;
  absorb_cmp st ~count:d.Machine.n_cmp d.Machine.cmp_raw;
  if d.Machine.log <> "" then Buffer.add_string st.pend_log d.Machine.log

(* UART output as the per-request path would see it at this point:
   either drained now, or accumulated stop-by-stop since the last
   consumption point. *)
let take_log st =
  match st.mode with
  | Per_request ->
    (match Machine.drain_uart st.machine with Ok s -> s | Error _ -> "")
  | Fused ->
    let log = Buffer.contents st.pend_log in
    Buffer.clear st.pend_log;
    log

let drain_cmp_hints st =
  (* Only feedback-guided campaigns read the ring, and only they learn
     from it — EOF-nf ignores feedback by definition. *)
  if st.config.feedback then begin
    (match st.mode with
     | Fused -> ()
     | Per_request ->
       let layout = Osbuild.covbuf_layout st.build in
       let raw = Machine.read_counted st.machine (Sancov.Layout.cmp_ring layout) in
       absorb_cmp st ~count:(String.length raw / 8) raw);
    if st.pend_cmp_len > 0 then begin
      let pairs =
        List.init st.pend_cmp_len (fun i -> (st.pend_cmp_a.(i), st.pend_cmp_b.(i)))
      in
      st.pend_cmp_len <- 0;
      st.last_cmp_pairs <- pairs;
      List.iter
        (fun (a, b) ->
          Gen.add_int_hint st.gen a;
          Gen.add_int_hint st.gen b)
        pairs
    end
  end

let drain_coverage st =
  (match st.mode with
   | Fused -> ()
   | Per_request ->
     let layout = Osbuild.covbuf_layout st.build in
     let raw = Machine.read_counted st.machine (Sancov.Layout.records layout) in
     absorb_records st ~count:(String.length raw / 4) raw);
  let merged = Feedback.merge_array st.fb st.pend_rec ~len:st.pend_rec_len in
  st.pend_rec_len <- 0;
  merged

let operation_of_progress st =
  match Machine.read_u32 st.machine ~addr:(Agent.progress_addr st.build) with
  | Error _ -> None
  | Ok v ->
    let idx = Int32.to_int v in
    if idx < 0 || idx >= Array.length st.current_ops then None
    else Some st.current_ops.(idx)

let scope_of_backtrace = function
  | frame :: _ ->
    (* "path/file.c : function : line" -> the file's stem *)
    (match String.split_on_char ':' frame with
     | path :: _ ->
       let path = String.trim path in
       let base = Filename.basename path in
       (try Filename.chop_extension base with Invalid_argument _ -> base)
     | [] -> "kernel")
  | [] -> "kernel"

let record_crash st ~kind ~operation ~scope ~message ~backtrace ~monitor =
  st.crash_events <- st.crash_events + 1;
  Obs.Counter.incr st.c_crash_events;
  let crash =
    {
      Crash.os = Osbuild.os_name st.build;
      kind;
      operation;
      scope;
      message;
      backtrace;
      detected_by = monitor;
      program = Prog.to_string st.current_prog;
      iteration = st.iteration;
    }
  in
  if Crash.Ledger.add st.ledger crash && Obs.active st.obs then
    Obs.emit st.obs (Obs.Event.Crash_found { kind = Crash.kind_name kind; operation })

(* Scan a log chunk for monitor-detectable events (assertions in
   particular survive without any hardware fault). *)
let scan_log_for_crashes st log =
  let detections = Monitor.scan log in
  (match Monitor.first_assertion detections with
   | Some (_, message) ->
     let operation =
       match Monitor.assert_operation message with
       | Some op -> op
       | None -> Option.value ~default:"unknown" (operation_of_progress st)
     in
     record_crash st ~kind:Crash.Kernel_assertion ~operation ~scope:"kernel" ~message
       ~backtrace:[] ~monitor:Crash.Log_monitor
   | None -> ());
  detections

(* Deterministic Redqueen step: if the program that just ran compared one
   of its own arguments against a different constant, queue the patched
   program to run next. The queue holds at most 32 children; patching
   stops once it is full. *)
let queue_i2s_children st =
  if
    st.config.feedback && st.current_prog <> [] && (not st.last_was_child)
    && st.pending_len < 32
  then
    Gen.substitute_all st.gen st.current_prog ~pairs:st.last_cmp_pairs (fun child ->
        let h = Prog.hash child in
        if not (Hashtbl.mem st.pending_hashes h) then begin
          Hashtbl.replace st.pending_hashes h ();
          st.pending <- child :: st.pending;
          st.pending_len <- st.pending_len + 1
        end;
        st.pending_len < 32)


(* --- liveness & recovery --------------------------------------------- *)

(* A board reset clears RAM (coverage buffer, cmp ring) and the UART
   FIFO: whatever the unbatched host had not yet read is destroyed. The
   batched host holds that same not-yet-committed data in its pending
   accumulators, so a reset must destroy those too — otherwise batching
   would smuggle pre-crash records past the reboot and the two modes
   would diverge. *)
let discard_pending st =
  st.pend_rec_len <- 0;
  st.pend_cmp_len <- 0;
  st.pend_write <- None;
  Buffer.clear st.pend_log

let reflash st =
  match Liveness.restore st.machine ~build:st.build with
  | Ok _ ->
    st.reflashes <- st.reflashes + 1;
    st.resets <- st.resets + 1;
    discard_pending st;
    Ok ()
  | Error e -> Error e

let reboot st =
  match Liveness.reboot_only st.machine with
  | Ok () ->
    st.resets <- st.resets + 1;
    discard_pending st;
    Ok ()
  | Error e -> Error e

(* The escalation ladder, climbing one rung per link failure that the
   session's own in-exchange retry (rung "retry") could not cure:
   resynchronize the session, then reset the board, then reflash every
   partition, then give the board up for dead. A recovery action that
   itself fails climbs immediately; any cleanly decoded stop drops back
   to the bottom (see {!classify_stop}). *)
let rec recover st (cause : Eof_error.t) =
  st.rung <- st.rung + 1;
  let attempt = st.rung in
  let observe rung =
    if Obs.active st.obs then
      Obs.emit st.obs (Obs.Event.Recovery { rung; attempt })
  in
  match st.rung with
  | 1 ->
    Obs.Counter.incr st.c_resyncs;
    observe "resync";
    (match Machine.resync st.machine with
     | Ok () -> Ok ()
     | Error e -> recover st e)
  | 2 ->
    Obs.Counter.incr st.c_rung_resets;
    observe "reset";
    (match reboot st with Ok () -> Ok () | Error e -> recover st e)
  | 3 ->
    Obs.Counter.incr st.c_rung_reflashes;
    observe "reflash";
    (match reflash st with Ok () -> Ok () | Error e -> recover st e)
  | _ ->
    Obs.Counter.incr st.c_dead;
    observe "dead";
    st.dead <- true;
    let e =
      Eof_error.with_context (Eof_error.to_string cause)
        (Eof_error.board_dead "reflash")
    in
    st.abort_cause <- Some e;
    Error e

(* One continue plus full interpretation of the stop. Both drive loops
   handle a [stop_event] alike (see {!on_stop}); [`Ready] and [`Done]
   mean something different to each. *)
type stop_event =
  [ `Buf_full
  | `Panic_bp
  | `Fault
  | `Quantum of int
  | `Other_bp
  | `Exited
  | `Link_failed of Eof_error.t ]

type event = [ `Ready | `Done | stop_event ]

let classify_stop st stop : event =
  (* Any cleanly decoded stop proves the link healthy: drop back to the
     bottom of the escalation ladder. *)
  st.rung <- 0;
  match stop with
  | Machine.Stopped_breakpoint pc ->
    Liveness.reset st.liveness;
    if pc = st.syms.Osbuild.sym_executor_main then `Ready
    else if pc = st.syms.Osbuild.sym_loop_back then `Done
    else if pc = st.syms.Osbuild.sym_buf_full then `Buf_full
    else if pc = st.syms.Osbuild.sym_handle_exception then `Panic_bp
    else `Other_bp
  | Machine.Stopped_fault _ -> `Fault
  | Machine.Stopped_quantum pc -> `Quantum pc
  | Machine.Target_exited -> `Exited

let advance st =
  match st.mode with
  | Per_request ->
    (match Machine.continue_ st.machine with
     | Error e -> `Link_failed e
     | Ok stop -> classify_stop st stop)
  | Fused ->
    (* The hot-path fusion: the continue, the whole coverage drain and
       any staged mailbox delivery are one machine operation — one
       vBatch round trip on the link instead of six-plus. *)
    let write = st.pend_write in
    st.pend_write <- None;
    (match Machine.continue_and_drain ?write st.machine ~want_cmp:st.config.feedback with
     | Error e -> `Link_failed e
     | Ok (stop, d) ->
       absorb_drained st d;
       classify_stop st stop)

(* A continue whose stop is deliberately ignored (letting a fault
   unwind). The fused path still drains, so nothing the unbatched path
   would later find in RAM is lost. *)
let blind_continue st =
  match st.mode with
  | Per_request ->
    ignore (Machine.continue_ st.machine : (Machine.stop, Eof_error.t) result)
  | Fused ->
    (match Machine.continue_and_drain st.machine ~want_cmp:st.config.feedback with
     | Ok (_, d) -> absorb_drained st d
     | Error _ -> ())

let handle_panic_bp st =
  let log = take_log st in
  let detections = scan_log_for_crashes st log in
  let backtrace = Monitor.collect_backtrace detections in
  let message =
    match Monitor.first_panic detections with
    | Some (_, m) -> m
    | None -> (match Machine.last_fault st.machine with Ok f when f <> "" -> f | _ -> "panic")
  in
  let operation =
    match operation_of_progress st with Some op -> op | None -> "boot"
  in
  record_crash st ~kind:Crash.Kernel_panic ~operation
    ~scope:(scope_of_backtrace backtrace) ~message ~backtrace
    ~monitor:Crash.Exception_monitor;
  (* Let the fault unwind (ignore its stop), then reboot. *)
  blind_continue st;
  reboot st

let handle_fault st =
  (* A hardware fault that did not pass through an instrumented panic
     handler: classify from the fault register and any log output. *)
  let log = take_log st in
  ignore (scan_log_for_crashes st log : Monitor.detection list);
  let message =
    match Machine.last_fault st.machine with Ok f when f <> "" -> f | _ -> "hardware fault"
  in
  let operation =
    match operation_of_progress st with Some op -> op | None -> "boot"
  in
  record_crash st ~kind:Crash.Kernel_panic ~operation ~scope:"kernel" ~message ~backtrace:[]
    ~monitor:Crash.Exception_monitor;
  reboot st

let handle_stall st pc =
  st.stalls <- st.stalls + 1;
  let detections = scan_log_for_crashes st (take_log st) in
  (* A hang preceded by an assertion report was recorded by the log
     monitor, which names the bug; the watchdog merely unwedged the board. *)
  if Monitor.first_assertion detections = None then begin
    let operation =
      match operation_of_progress st with Some op -> op | None -> "unknown"
    in
    record_crash st ~kind:Crash.Hang ~operation ~scope:"kernel"
      ~message:(Printf.sprintf "execution stalled at 0x%08x" pc)
      ~backtrace:[] ~monitor:Crash.Liveness_watchdog
  end;
  reboot st

(* The stop arms both drive loops share. [`Running]: keep driving.
   [`Crashed]: a crash was recorded and the board rebooted.
   [`Restarted]: the board is back without a crash — the target exited,
   or the ladder cured a lost connection or a link failure. *)
let on_stop st (ev : stop_event) =
  match ev with
  | `Buf_full ->
    ignore (drain_coverage st : int);
    Ok `Running
  | `Other_bp -> Ok `Running
  | `Panic_bp -> Result.map (fun () -> `Crashed) (handle_panic_bp st)
  | `Fault -> Result.map (fun () -> `Crashed) (handle_fault st)
  | `Exited -> Result.map (fun () -> `Restarted) (reboot st)
  | `Quantum _ when not st.config.stall_watchdog ->
    (* Ablation A1: no stall watchdog; burn budget continuing. *)
    Ok `Running
  | `Quantum _ ->
    (match Liveness.check st.liveness st.machine with
     | Liveness.Pc_stalled pc ->
       Liveness.reset st.liveness;
       Result.map (fun () -> `Crashed) (handle_stall st pc)
     | Liveness.Connection_lost ->
       st.timeouts <- st.timeouts + 1;
       Result.map
         (fun () -> `Restarted)
         (recover st (Eof_error.with_context "liveness connection-lost" Eof_error.timeout))
     | Liveness.Alive | Liveness.First_observation -> Ok `Running)
  | `Link_failed cause ->
    st.timeouts <- st.timeouts + 1;
    Result.map (fun () -> `Restarted) (recover st cause)

(* Drive until the agent waits at executor_main. *)
let rec goto_ready st ~budget =
  if budget <= 0 then Error (Eof_error.agent "target failed to reach executor_main")
  else
    let next = function
      | Ok _ -> goto_ready st ~budget:(budget - 1)
      | Error e -> Error e
    in
    match advance st with
    | `Ready -> Ok ()
    | `Done ->
      ignore (drain_coverage st : int);
      ignore (scan_log_for_crashes st (take_log st) : Monitor.detection list);
      goto_ready st ~budget:(budget - 1)
    | `Quantum pc when pc = st.syms.Osbuild.sym_boot ->
      (* Stuck at the boot vector: the image is damaged; reflash. *)
      ignore (scan_log_for_crashes st (take_log st) : Monitor.detection list);
      record_crash st ~kind:Crash.Boot_failure ~operation:"boot" ~scope:"bootloader"
        ~message:"image integrity check failed at boot" ~backtrace:[]
        ~monitor:Crash.Liveness_watchdog;
      next (reflash st)
    | #stop_event as ev -> next (on_stop st ev)

let write_program st prog =
  let wire = Prog.to_wire prog in
  (* Encode into the reused scratch buffer; the only per-payload
     allocation left is the exact-size image string itself (it must be
     a string: staged writes and RSP packets both keep it). *)
  Buffer.clear st.img_buf;
  match Wire.encode_into ~endianness:st.endianness st.img_buf wire with
  | Error e -> Error (Eof_error.agent e)
  | Ok () ->
    let plen = Buffer.length st.img_buf in
    if plen + 8 > Agent.max_program_bytes st.build then
      Error (Eof_error.agent "program exceeds mailbox")
    else begin
      let image = Bytes.create (8 + plen) in
      (match st.endianness with
       | Arch.Little ->
         Bytes.set_int32_le image 0 Wire.magic;
         Bytes.set_int32_le image 4 (Int32.of_int plen)
       | Arch.Big ->
         Bytes.set_int32_be image 0 Wire.magic;
         Bytes.set_int32_be image 4 (Int32.of_int plen));
      Buffer.blit st.img_buf 0 image 8 plen;
      let image = Bytes.unsafe_to_string image in
      let addr = Osbuild.mailbox_base st.build in
      (* The fused mode stages the image: it is delivered inside the
         next fused continue (a binary write op in the vBatch, or a
         direct memory write), costing zero extra exchanges. The
         unbatched baseline keeps the hex M packet so its per-request
         cost model stays what it was. *)
      match st.mode with
      | Fused ->
        st.pend_write <- Some (addr, image);
        Ok ()
      | Per_request ->
        (match Machine.write_mem st.machine ~addr image with
         | Ok () -> Ok ()
         | Error e -> Error (Eof_error.with_context "program delivery" e))
    end

(* Execute the delivered program until loop_back (or a crash resolves). *)
let rec run_program st ~budget ~crashed =
  if budget <= 0 then Ok (`Aborted, crashed)
  else
    match advance st with
    | `Done ->
      ignore (drain_coverage st : int);
      drain_cmp_hints st;
      ignore (scan_log_for_crashes st (take_log st) : Monitor.detection list);
      Ok (`Completed, crashed)
    | `Ready ->
      (* Came back around without hitting loop_back: the mailbox held
         garbage (undecodable program) — treat as completed-empty. *)
      Ok (`Rejected, crashed)
    | #stop_event as ev ->
      (match on_stop st ev with
       | Ok `Running -> run_program st ~budget:(budget - 1) ~crashed
       | Ok `Crashed -> Ok (`Crashed, true)
       | Ok `Restarted -> Ok (`Aborted, crashed)
       | Error e -> Error e)

let mutate_seed st seed =
  (* Mutation may grow seeds past the fresh-generation cap: corpus
     programs accumulate kernel context the generator cannot guess. *)
  Gen.mutate st.gen seed ~max_len:(2 * st.config.max_prog_len)

let choose_program st =
  if not st.config.feedback then Gen.generate st.gen ~max_len:st.config.max_prog_len
  else
    match st.pending with
    | child :: rest ->
      st.pending <- rest;
      st.pending_len <- st.pending_len - 1;
      st.last_was_fresh <- false;
      st.last_was_child <- true;
      child
    | [] ->
      st.last_was_child <- false;
    match st.focus with
    | Some (prog, remaining) when remaining > 0 ->
      st.focus <- Some (prog, remaining - 1);
      st.last_was_fresh <- false;
      (* Half the focused budget goes to input-to-state substitution
         (Redqueen-style), half to havoc mutation. Substitution applies
         to the most recently executed program — the one the recorded
         comparison operands belong to — so a discarded mutant whose new
         call compared against an unmet constant still gets patched. *)
      if Rng.chance st.rng 0.5 && st.current_prog <> [] then
        match Gen.substitute st.gen st.current_prog ~pairs:st.last_cmp_pairs with
        | Some prog' -> prog'
        | None -> Gen.mutate_focus st.gen prog ~max_len:(2 * st.config.max_prog_len)
      else Gen.mutate_focus st.gen prog ~max_len:(2 * st.config.max_prog_len)
    | _ ->
      st.focus <- None;
      (* The explore/exploit split follows the observed yield of fresh
         generation: explore while random programs still find edges,
         shift budget to corpus mutation as they stop (mutation_bias is
         the ceiling the split approaches). This self-scales to any
         iteration budget, unlike a wall-clock ramp. *)
      let bias = mutation_bias *. (1. -. st.fresh_yield) in
      st.last_was_fresh <- false;
      if (not (Corpus.is_empty st.corpus)) && Rng.chance st.rng bias then begin
        (* An active energy grant spends its remaining budget on the
           same seed before the next corpus draw (always [None] under
           the uniform schedule, where every draw earns energy 1 and
           this path is RNG-identical to the original single pick). *)
        match st.sched with
        | Some (seed, remaining) when remaining > 0 ->
          st.sched <- Some (seed, remaining - 1);
          mutate_seed st seed
        | _ ->
          st.sched <- None;
          (match Corpus.next st.corpus ~target:st.target with
           | Some (seed, energy) ->
             if energy > 1 then begin
               st.sched <- Some (seed, energy - 1);
               Obs.Counter.incr st.c_sched_grants;
               if Obs.active st.obs then
                 Obs.emit st.obs
                   (Obs.Event.Seed_scheduled
                      {
                        energy;
                        frontier =
                          Corpus.on_frontier st.corpus ~target:st.target seed;
                      })
             end;
             mutate_seed st seed
           | None ->
             st.last_was_fresh <- true;
             Gen.generate st.gen ~max_len:st.config.max_prog_len)
      end
      else begin
        st.last_was_fresh <- true;
        Gen.generate st.gen ~max_len:st.config.max_prog_len
      end

let sample st =
  st.series <-
    {
      iteration = st.iteration;
      virtual_s = Machine.virtual_elapsed_s st.machine;
      coverage = Feedback.covered st.fb;
    }
    :: st.series

let outcome_of_state st =
  {
    os = Osbuild.os_name st.build;
    coverage = Feedback.covered st.fb;
    series = List.rev st.series;
    crashes = Crash.Ledger.to_list st.ledger;
    crash_events = st.crash_events;
    executed_programs = st.executed_programs;
    resets = st.resets;
    reflashes = st.reflashes;
    stalls = st.stalls;
    timeouts = st.timeouts;
    corpus_size = Corpus.size st.corpus;
    virtual_s = Machine.virtual_elapsed_s st.machine;
    iterations_done = st.iteration;
    coverage_bitmap = Feedback.snapshot st.fb;
    final_corpus = Corpus.progs st.corpus;
    abort_cause = st.abort_cause;
  }

(* Restrict a validated spec to an allowlist, dropping resources that
   lose their producers. *)
let filter_spec (spec : Eof_spec.Ast.t) allow =
  let calls = List.filter (fun (c : Eof_spec.Ast.call) -> List.mem c.Eof_spec.Ast.name allow) spec.Eof_spec.Ast.calls in
  let produced =
    List.filter_map (fun (c : Eof_spec.Ast.call) -> c.Eof_spec.Ast.ret) calls
    |> List.sort_uniq compare
  in
  let calls =
    List.filter
      (fun (c : Eof_spec.Ast.call) ->
        List.for_all
          (fun (_, ty) ->
            match ty with Eof_spec.Ast.Ty_res k -> List.mem k produced | _ -> true)
          c.Eof_spec.Ast.args)
      calls
  in
  { spec with Eof_spec.Ast.calls; resources = produced }

let machine_of_config ?obs config build =
  match config.backend with
  | Machine.Native -> Machine.create_native ?obs build
  | Machine.Link ->
    let inject =
      if config.fault_rate > 0. then
        Some
          {
            Eof_debug.Inject.default_config with
            Eof_debug.Inject.rate = config.fault_rate;
            seed = config.fault_seed;
          }
      else None
    in
    Machine.create ?obs ?inject build

let init ?machine ?obs config build =
  let table = Osbuild.api_signatures build in
  match Eof_spec.Synth.validated_of_api table with
  | Error e -> Error (Eof_error.config e)
  | Ok spec ->
    let spec =
      match config.api_filter with None -> spec | Some allow -> filter_spec spec allow
    in
    let machine_result =
      match machine with
      | Some m -> Ok m
      | None -> machine_of_config ?obs config build
    in
    (match machine_result with
     | Error e -> Error e
     | Ok machine when
         Machine.backend machine = Machine.Native && config.fault_rate > 0. ->
       (* Checked against the resolved machine, not config.backend, so a
          supplied native machine is rejected identically. *)
       Error
         (Eof_error.config
            "fault injection is link-only: the native backend has no link to fault")
     | Ok machine ->
       (* The campaign may hold a different handle of the same bus than
          the machine does (the farm derives one per board); bind this
          one's clock to the same virtual time source. *)
       (match obs with
        | Some bus -> Obs.set_clock bus (fun () -> Machine.virtual_elapsed_s machine)
        | None -> ());
       let obs = match obs with Some o -> o | None -> Machine.obs machine in
       let rng = Rng.create config.seed in
       let gen =
         Gen.create ~dep_aware:config.dep_aware ~rng:(Rng.split rng) ~spec ~table ()
       in
       (* The scheduling target is the fuzzed API surface, not the full
          table: an api_filter'd campaign is a different target, so its
          frontier does not pollute the unfiltered one's. *)
       let target =
         let table_for_target =
           match config.api_filter with
           | None -> table
           | Some _ ->
             {
               table with
               Eof_rtos.Api.entries =
                 List.filter
                   (fun (e : Eof_rtos.Api.entry) ->
                     List.exists
                       (fun (c : Eof_spec.Ast.call) ->
                         String.equal c.Eof_spec.Ast.name e.Eof_rtos.Api.name)
                       spec.Eof_spec.Ast.calls)
                   table.Eof_rtos.Api.entries;
             }
         in
         Corpus.target_of ~os:(Osbuild.os_name build) ~table:table_for_target
       in
       let st =
         {
           config;
           build;
           machine;
           mode = (if config.batch_link then Fused else Per_request);
           syms = Osbuild.syms build;
           endianness = (Board.profile (Osbuild.board build)).Board.arch.Arch.endianness;
           gen;
           rng;
           fb = Feedback.create ~edge_capacity:(Osbuild.edge_capacity build);
           corpus =
             Corpus.create ~rng:(Rng.split rng) ~schedule:config.schedule ~target ();
           target;
           sched = None;
           ledger = Crash.Ledger.create ();
           crash_events = 0;
           executed_programs = 0;
           resets = 0;
           reflashes = 0;
           stalls = 0;
           timeouts = 0;
           iteration = 0;
           series = [];
           current_prog = [];
           focus = None;
           last_cmp_pairs = [];
           pending = [];
           pending_len = 0;
           pending_hashes = Hashtbl.create 256;
           last_was_child = false;
           fresh_yield = 1.0;
           last_was_fresh = false;
           liveness = Liveness.create ~obs ();
           pend_rec = Array.make 256 0;
           pend_rec_len = 0;
           pend_cmp_a = Array.make 64 0L;
           pend_cmp_b = Array.make 64 0L;
           pend_cmp_len = 0;
           pend_log = Buffer.create 256;
           pend_write = None;
           img_buf = Buffer.create 1024;
           current_ops = [||];
           consecutive_failures = 0;
           rung = 0;
           dead = false;
           abort_cause = None;
           obs;
           payload_span = Obs.span_kind obs "campaign.payload";
           c_payloads = Obs.Counter.make obs "campaign.payloads";
           c_crash_events = Obs.Counter.make obs "campaign.crash_events";
           c_corpus_admits = Obs.Counter.make obs "campaign.corpus_admits";
           c_sched_grants = Obs.Counter.make obs "campaign.sched_grants";
           c_resyncs = Obs.Counter.make obs "recover.resync";
           c_rung_resets = Obs.Counter.make obs "recover.reset";
           c_rung_reflashes = Obs.Counter.make obs "recover.reflash";
           c_dead = Obs.Counter.make obs "recover.dead";
         }
       in
       let arm addr =
         match Machine.set_breakpoint machine addr with
         | Ok () -> Ok ()
         | Error e -> Error (Eof_error.with_context "arm breakpoint" e)
       in
       let ( let* ) = Result.bind in
       let* () = arm st.syms.Osbuild.sym_executor_main in
       let* () = arm st.syms.Osbuild.sym_loop_back in
       let* () = arm st.syms.Osbuild.sym_buf_full in
       let* () = arm st.syms.Osbuild.sym_handle_exception in
       (* Fresh-per-program captures the pristine state now — after
          install and breakpoint arming, before the target ever runs —
          so every later restore (each payload, or ladder rung 3)
          rewinds to exactly this point. *)
       let* () =
         match config.reset_policy with
         | Ladder -> Ok ()
         | Fresh_per_program ->
           Result.map_error
             (Eof_error.with_context "arm pristine snapshot")
             (Result.map ignore (Machine.snapshot_save machine))
       in
       (* Replay loaded seeds so they re-enter the corpus with their
          coverage credited. *)
       List.iter
         (fun prog ->
           if Prog.validate prog = Ok () then
             ignore (Corpus.add st.corpus ~prog ~new_edges:1 ~crashed:false : bool))
         config.initial_seeds;
       Ok st)

(* An unrecoverable iteration failure: five in a row abort the campaign,
   and the cause of the fifth is kept as the abort cause (a dead board
   already recorded its own richer cause). *)
let note_failure st e =
  st.consecutive_failures <- st.consecutive_failures + 1;
  if st.consecutive_failures >= 5 && st.abort_cause = None then
    st.abort_cause <- Some (Eof_error.with_context "5 consecutive failed iterations" e)

let finished st =
  st.dead
  || st.iteration >= st.config.iterations
  || st.consecutive_failures >= 5

let step st =
  if not (finished st) then begin
    let config = st.config in
    st.iteration <- st.iteration + 1;
    (match config.reset_policy with
     | Fresh_per_program ->
       (* Every payload starts from the pristine snapshot: rewind the
          dirty pages, then reboot (which also discards the host's
          pending accumulators, exactly as a ladder reboot does). A
          failed restore is a failed iteration, not a crash — the
          ladder still guards actual link trouble. *)
       (match Machine.snapshot_restore st.machine with
        | Ok (_dirty : int) ->
          ignore (reboot st : (unit, Eof_error.t) result)
        | Error e ->
          note_failure st (Eof_error.with_context "fresh-per-program restore" e))
     | Ladder ->
       if st.iteration mod reboot_every = 0 then
         ignore (reboot st : (unit, Eof_error.t) result));
    (match goto_ready st ~budget:50 with
     | Error e -> note_failure st e
     | Ok () ->
       let before = Feedback.covered st.fb in
       let distinct_before = Crash.Ledger.distinct st.ledger in
       let prog = choose_program st in
       st.current_prog <- prog;
       st.current_ops <-
         Array.of_list
           (List.map (fun c -> c.Prog.spec.Eof_spec.Ast.name) prog);
       if config.irq_injection && Rng.chance st.rng 0.4 then begin
         let pin = Rng.int st.rng 16 in
         ignore
           (Machine.inject_gpio st.machine ~pin ~level:(Rng.bool st.rng)
             : (unit, Eof_error.t) result)
       end;
       (match write_program st prog with
        | Error e -> note_failure st e
        | Ok () ->
          let payload_span = Obs.span_begin st.obs st.payload_span in
          (match run_program st ~budget:200 ~crashed:false with
           | Error e ->
             Obs.span_end st.obs payload_span;
             note_failure st e
           | Ok (status, crashed) ->
             Obs.span_end st.obs payload_span;
             Obs.Counter.incr st.c_payloads;
             st.consecutive_failures <- 0;
             (match status with
              | `Completed | `Crashed ->
                st.executed_programs <- st.executed_programs + 1
              | `Rejected | `Aborted -> ());
             let new_edges = Feedback.covered st.fb - before in
             if Obs.active st.obs then begin
               let status_name =
                 match status with
                 | `Completed -> "completed"
                 | `Crashed -> "crashed"
                 | `Rejected -> "rejected"
                 | `Aborted -> "aborted"
               in
               Obs.emit st.obs
                 (Obs.Event.Payload
                    { iteration = st.iteration; status = status_name; new_edges })
             end;
             if st.last_was_fresh then
               st.fresh_yield <-
                 (0.95 *. st.fresh_yield)
                 +. (0.05 *. if new_edges > 0 then 1. else 0.);
             (* Crashing inputs are interesting the first time a
                bug is seen; re-triggers of a known bug are not. *)
             let fresh_crash =
               crashed && Crash.Ledger.distinct st.ledger > distinct_before
             in
             (* Exploitation (input-to-state children, focus
                bursts) only pays once cheap exploration has
                dried up; before that it just starves the fresh
                sampling that is still finding edges. *)
             let exploit_worthwhile = st.fresh_yield < 0.3 in
             (* Children are globally deduplicated, so each
                unique patch runs once; no flooding. *)
             if exploit_worthwhile then queue_i2s_children st;
             if config.feedback && (new_edges > 0 || fresh_crash) then begin
               ignore
                 (Corpus.add st.corpus ~prog ~new_edges ~crashed:fresh_crash
                   : bool);
               Obs.Counter.incr st.c_corpus_admits;
               if Obs.active st.obs then
                 Obs.emit st.obs
                   (Obs.Event.Corpus_admit
                      { new_edges; size = Corpus.size st.corpus });
               (* Focused exploitation pays on narrow finds —
                  a fresh comparison bucket worth hill-climbing.
                  Broad hauls come from fresh exploration, which
                  a burst would only starve. *)
               if new_edges > 0 && new_edges <= 4 && exploit_worthwhile
               then st.focus <- Some (prog, 12)
             end)));
    if st.iteration mod config.snapshot_every = 0 then sample st
  end

let finish st =
  sample st;
  outcome_of_state st

(* Per-board observers for the farm orchestrator. *)

let feedback st = st.fb

let corpus st = st.corpus

let crashes_so_far st = Crash.Ledger.to_list st.ledger

let crash_events_so_far st = st.crash_events

let executed_programs_so_far st = st.executed_programs

let iteration st = st.iteration

let is_dead st = st.dead

let virtual_s st = Machine.virtual_elapsed_s st.machine

let cpu_s st = Machine.cpu_elapsed_s st.machine

let run ?machine ?obs config build =
  match init ?machine ?obs config build with
  | Error e -> Error e
  | Ok st ->
    while not (finished st) do
      step st
    done;
    Ok (finish st)
