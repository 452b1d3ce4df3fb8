open Eof_hw
open Eof_os
module Eof_error = Eof_util.Eof_error
module Session = Eof_debug.Session
module Sancov = Eof_cov.Sancov
module Obs = Eof_obs.Obs
module Openocd = Eof_debug.Openocd

type backend = Link | Native

let backend_name = function Link -> "link" | Native -> "native"

let backend_of_name s =
  match String.lowercase_ascii s with
  | "link" -> Ok Link
  | "native" -> Ok Native
  | other -> Error (Printf.sprintf "unknown backend %S (link|native)" other)

type stop = Eof_debug.Session.stop =
  | Stopped_breakpoint of int
  | Stopped_quantum of int
  | Stopped_fault of int
  | Target_exited

type drained = Eof_debug.Covlink.drained = {
  n_records : int;
  records_raw : string;
  n_cmp : int;
  cmp_raw : string;
  log : string;
}

type link_state = {
  transport : Eof_debug.Transport.t;
  session : Session.t;
  covlink : Eof_debug.Covlink.t;
}

type native_state = {
  n_obs : Obs.t;
  records : Sancov.Layout.counted;  (* the drain's two buffers *)
  cmp_ring : Sancov.Layout.counted;
  c_stops : Obs.Counter.t;
  c_drains : Obs.Counter.t;
  c_records : Obs.Counter.t;
  c_cmp : Obs.Counter.t;
  c_flash_ops : Obs.Counter.t;
}

type impl = L of link_state | N of native_state

type t = {
  build : Osbuild.t;
  board : Board.t;
  engine : Eof_exec.Engine.t;
  probe : Openocd.t;
      (* the board-side debug server: the link session's far end, or the
         native backend's direct callee *)
  impl : impl;
  (* Host-side knowledge that a pristine snapshot is in the probe's slot:
     gates the O(dirty pages) fast path in Liveness.restore. *)
  mutable snapshot_armed : bool;
  (* Found on first use, so a machine that never snapshots adds no
     counter to its bus. *)
  c_saves : Obs.Counter.t Lazy.t;
  c_restores : (Obs.Counter.t * Obs.Counter.t) Lazy.t;  (* restores, pages copied *)
}

let snapshot_counters bus =
  ( lazy (Obs.Counter.make bus "snapshot.saves"),
    lazy (Obs.Counter.make bus "snapshot.restores", Obs.Counter.make bus "snapshot.pages_copied") )

let make_probe build =
  let board = Osbuild.board build in
  let syms = Osbuild.syms build in
  let engine =
    Eof_exec.Engine.create ~board ~fault_vector:syms.Osbuild.sym_handle_exception
      ~entry:(Agent.entry build)
  in
  (board, engine, Openocd.create ~board ~engine ())

let create ?obs ?transport ?inject build =
  let board, engine, probe = make_probe build in
  let transport =
    match transport with
    | Some t -> t
    | None -> Eof_debug.Transport.create ?obs ()
  in
  (* A fault schedule rides the transport whether the transport was
     supplied or created here: the injector is orthogonal probe
     behaviour, not transport construction. *)
  (match inject with
   | Some cfg -> Eof_debug.Transport.set_injector transport (Some (Eof_debug.Inject.create cfg))
   | None -> ());
  match Session.connect ?obs ~transport ~server:probe () with
  | Ok session ->
    let covlink =
      Eof_debug.Covlink.create ~session ~layout:(Osbuild.covbuf_layout build)
    in
    let c_saves, c_restores = snapshot_counters (Session.obs session) in
    let t =
      { build; board; engine; probe; impl = L { transport; session; covlink };
        snapshot_armed = false; c_saves; c_restores }
    in
    (* Timestamps on this machine's bus handle come from its own virtual
       clock, never the host wall clock — the trace-determinism
       guarantee hangs on this binding. *)
    (match obs with
     | Some bus ->
       Eof_obs.Obs.set_clock bus (fun () ->
           Clock.now_s (Board.clock board)
           +. (Eof_debug.Transport.elapsed_us transport /. 1e6))
     | None -> ());
    Ok t
  | Error e -> Error (Eof_error.with_context "link bring-up" e)

let create_native ?obs build =
  let board, engine, probe = make_probe build in
  (* The native clock is board CPU time alone: no transport exists to
     contribute latency, and binding anything else would break the
     backend's "pay only for execution" cost model. *)
  (match obs with
   | Some bus -> Obs.set_clock bus (fun () -> Clock.now_s (Board.clock board))
   | None -> ());
  let n_obs = match obs with Some o -> o | None -> Obs.create () in
  let c_saves, c_restores = snapshot_counters n_obs in
  let layout = Osbuild.covbuf_layout build in
  Ok
    {
      build;
      board;
      engine;
      probe;
      snapshot_armed = false;
      c_saves;
      c_restores;
      impl =
        N
          {
            n_obs;
            records = Sancov.Layout.records layout;
            cmp_ring = Sancov.Layout.cmp_ring layout;
            c_stops = Obs.Counter.make n_obs "native.stops";
            c_drains = Obs.Counter.make n_obs "native.drains";
            c_records = Obs.Counter.make n_obs "native.records";
            c_cmp = Obs.Counter.make n_obs "native.cmp";
            c_flash_ops = Obs.Counter.make n_obs "native.flash_ops";
          };
    }

let backend t = match t.impl with L _ -> Link | N _ -> Native

let session t =
  match t.impl with
  | L l -> l.session
  | N _ -> invalid_arg "Machine.session: native machine has no link stack"

let obs t =
  match t.impl with L l -> Session.obs l.session | N n -> n.n_obs

let virtual_elapsed_s t =
  let cpu = Clock.now_s (Board.clock t.board) in
  match t.impl with
  | L l -> cpu +. (Eof_debug.Transport.elapsed_us l.transport /. 1e6)
  | N _ -> cpu

(* Target CPU time alone — identical across backends for the same
   payload schedule, which is what makes it usable as a
   backend-invariant ordering key. *)
let cpu_elapsed_s t = Clock.now_s (Board.clock t.board)

(* --- backend-neutral operations ---------------------------------------- *)

let fault_error f = Eof_error.agent ("native memory access faulted: " ^ Fault.to_string f)

let endianness t = (Board.profile t.board).Board.arch.Arch.endianness

let observe_stop n stop =
  Obs.Counter.incr n.c_stops;
  if Obs.active n.n_obs then
    Obs.emit n.n_obs (Obs.Event.Stop { kind = Openocd.stop_kind stop; pc = Openocd.stop_pc stop })

let native_resume t n =
  let stop = Openocd.resume t.probe in
  observe_stop n stop;
  stop

let continue_ t =
  match t.impl with
  | L l -> Session.continue_ l.session
  | N n -> Ok (native_resume t n)

let read_mem t ~addr ~len =
  match t.impl with
  | L l -> Session.read_mem l.session ~addr ~len
  | N _ -> Result.map_error fault_error (Board.read_mem t.board ~addr ~len)

let write_mem t ~addr data =
  match t.impl with
  | L l -> Session.write_mem l.session ~addr data
  | N _ -> Result.map_error fault_error (Board.write_ram t.board ~addr data)

let word_of t raw =
  let b = Bytes.unsafe_of_string raw in
  match endianness t with
  | Arch.Little -> Bytes.get_int32_le b 0
  | Arch.Big -> Bytes.get_int32_be b 0

let read_u32 t ~addr =
  match t.impl with
  | L l -> Session.read_u32 l.session ~addr
  | N _ ->
    (match Board.read_mem t.board ~addr ~len:4 with
     | Error f -> Error (fault_error f)
     | Ok raw -> Ok (word_of t raw))

let write_u32 t ~addr v =
  match t.impl with
  | L l -> Session.write_u32 l.session ~addr v
  | N _ ->
    let b = Bytes.create 4 in
    (match endianness t with
     | Arch.Little -> Bytes.set_int32_le b 0 v
     | Arch.Big -> Bytes.set_int32_be b 0 v);
    Result.map_error fault_error
      (Board.write_ram t.board ~addr (Bytes.unsafe_to_string b))

let set_breakpoint t addr =
  match t.impl with
  | L l -> Session.set_breakpoint l.session addr
  | N _ ->
    Eof_exec.Engine.set_breakpoint t.engine addr;
    Ok ()

let read_pc t =
  match t.impl with
  | L l -> Session.read_pc l.session
  | N _ -> Ok (Eof_exec.Engine.pc t.engine land 0x7FFFFFFF)

let drain_uart t =
  match t.impl with
  | L l -> Session.drain_uart l.session
  | N _ -> Ok (Openocd.drain_uart t.probe)

let last_fault t =
  match t.impl with
  | L l -> Session.last_fault l.session
  | N _ -> Ok (Openocd.fault_text t.probe)

let reset_target t =
  match t.impl with
  | L l -> Session.reset_target l.session
  | N n ->
    Openocd.reset t.probe;
    if Obs.active n.n_obs then Obs.emit n.n_obs Obs.Event.Reset_board;
    Ok ()

let resync t =
  match t.impl with
  | L l -> Session.resync l.session
  | N _ -> Ok ()

let inject_gpio t ~pin ~level =
  match t.impl with
  | L l -> Session.inject_gpio l.session ~pin ~level
  | N _ ->
    Result.map_error
      (fun e -> Eof_error.agent ("gpio injection: " ^ e))
      (Openocd.set_gpio t.probe ~pin ~level)

(* --- counted reads and the fused drain ----------------------------------- *)

(* The host-side counted read, one request per step: read the counter
   word, clamp it, and only when the clamped count is positive read the
   entries and zero the counter. A failed read yields nothing and leaves
   the counter alone, so nothing is lost; a failed zeroing write is
   ignored, as the next read simply sees the entries again. *)
let read_counted t (g : Sancov.Layout.counted) =
  match read_u32 t ~addr:g.count_addr with
  | Error _ -> ""
  | Ok count ->
    let n = min (Int32.to_int count) g.max_count in
    if n <= 0 then ""
    else
      (match read_mem t ~addr:g.data_addr ~len:(n * g.stride) with
       | Error _ -> ""
       | Ok data ->
         ignore (write_u32 t ~addr:g.count_addr 0l : (unit, Eof_error.t) result);
         data)

(* The probe's own counted read, as its vBatch op runs it. A failed read
   yields the zero result, exactly as the link drain treats a failed
   sub-op. *)
let board_counted t ({ count_addr; data_addr; stride; max_count } : Sancov.Layout.counted) =
  match Board.read_counted t.board ~count_addr ~data_addr ~stride ~max_count ~reset:true with
  | Ok (_, data) -> data
  | Error _ -> ""

let native_drain t n ~want_cmp =
  let records_raw = board_counted t n.records in
  let cmp_raw = if want_cmp then board_counted t n.cmp_ring else "" in
  let d =
    { n_records = String.length records_raw / 4; records_raw;
      n_cmp = String.length cmp_raw / 8; cmp_raw;
      log = Openocd.drain_uart t.probe }
  in
  Obs.Counter.incr n.c_drains;
  Obs.Counter.add n.c_records d.n_records;
  Obs.Counter.add n.c_cmp d.n_cmp;
  if Obs.active n.n_obs then
    Obs.emit n.n_obs
      (Obs.Event.Drain
         { records = d.n_records; cmp = d.n_cmp;
           log_bytes = String.length d.log; fused = true });
  d

let continue_and_drain ?write t ~want_cmp =
  match t.impl with
  | L l -> Eof_debug.Covlink.continue_and_drain ?write l.covlink ~want_cmp
  | N n ->
    let deliver =
      match write with
      | None -> Ok ()
      | Some (addr, data) ->
        Result.map_error fault_error (Board.write_ram t.board ~addr data)
    in
    (match deliver with
     | Error e -> Error (Eof_error.with_context "program delivery" e)
     | Ok () ->
       let stop = native_resume t n in
       Ok (stop, native_drain t n ~want_cmp))

(* --- flash (state restoration) ----------------------------------------- *)

let observe_flash n ~op ~addr ~len =
  Obs.Counter.incr n.c_flash_ops;
  if Obs.active n.n_obs then Obs.emit n.n_obs (Obs.Event.Flash_op { op; addr; len })

let native_flash n ~op ~addr ~len = function
  | Ok () ->
    observe_flash n ~op ~addr ~len;
    Ok ()
  | Error f -> Error (Eof_error.flash (Fault.to_string f))

let flash_erase t ~addr ~len =
  match t.impl with
  | L l -> Session.flash_erase l.session ~addr ~len
  | N n -> native_flash n ~op:"erase" ~addr ~len (Openocd.flash_erase t.probe ~addr ~len)

let flash_write t ~addr data =
  match t.impl with
  | L l -> Session.flash_write l.session ~addr data
  | N n ->
    native_flash n ~op:"write" ~addr ~len:(String.length data)
      (Openocd.flash_program t.probe ~addr data)

let flash_done t =
  match t.impl with
  | L l -> Session.flash_done l.session
  | N n -> native_flash n ~op:"done" ~addr:0 ~len:0 (Ok ())

(* --- copy-on-write snapshots ------------------------------------------- *)

(* Both backends charge the save/restore cost model to the board clock
   (see Snapshot), so CPU-time digests stay backend-invariant; the link
   backend additionally pays one small exchange of transport time. *)

let has_snapshot t = t.snapshot_armed

let snapshot_save t =
  let result =
    match t.impl with
    | L l -> Session.snapshot_save l.session
    | N _ -> Ok (Openocd.snapshot_save t.probe)
  in
  match result with
  | Ok pages ->
    t.snapshot_armed <- true;
    let bus = obs t in
    Obs.Counter.incr (Lazy.force t.c_saves);
    if Obs.active bus then Obs.emit bus (Obs.Event.Snapshot_save { pages });
    Ok pages
  | Error _ as e -> e

let snapshot_restore t =
  let result =
    match t.impl with
    | L l -> Session.snapshot_restore l.session
    | N _ ->
      (match Openocd.snapshot_restore t.probe with
       | None ->
         Error
           (Eof_error.with_context "snapshot restore"
              (Eof_error.config "no snapshot saved on this machine"))
       | Some dirty -> Ok dirty)
  in
  match result with
  | Ok dirty ->
    let bus = obs t in
    let restores, pages_copied = Lazy.force t.c_restores in
    Obs.Counter.incr restores;
    Obs.Counter.add pages_copied dirty;
    if Obs.active bus then Obs.emit bus (Obs.Event.Snapshot_restore { dirty });
    Ok dirty
  | Error _ as e -> e
