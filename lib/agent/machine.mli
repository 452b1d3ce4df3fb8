open Eof_os

(** One fully-wired target behind one of two execution backends.

    {b Link} is the on-hardware path: board + engine running the agent,
    behind an OpenOCD-style server and a fault-injectable transport,
    driven over a simulated GDB RSP session. Every operation costs
    modelled link latency and can fail like a real probe.

    {b Native} is the transplant path (EmbedFuzz-style): the same board,
    engine, agent {e and probe} run in-process with no RSP framing and
    no transport. Operations call the probe's typed board-side
    operations ({!Eof_debug.Openocd.resume}, [reset], the snapshot slot,
    ...) and {!Eof_hw.Board.read_counted} directly, so stop
    classification, reset, flash and snapshot behaviour have one
    implementation on both backends. Virtual time is charged from board
    CPU cost only, and the only failures left are the target's own. The
    debug-link backend stays the oracle: a differential campaign run on
    both backends must produce identical digests (see {!Eof_core.Diff}),
    so the link checks the wire encoding of those shared operations.

    The campaign and farm layers drive either backend through the
    backend-neutral operations below; nothing above this module needs to
    know which one is plugged in. *)

type backend = Link | Native

val backend_name : backend -> string

val backend_of_name : string -> (backend, string) result
(** ["link"] or ["native"] (case-insensitive). *)

(** Stop classification: the probe's own ({!Eof_debug.Openocd.stop}),
    decoded from its stop reply on the link and returned directly
    natively. *)
type stop = Eof_debug.Session.stop =
  | Stopped_breakpoint of int
  | Stopped_quantum of int
  | Stopped_fault of int
  | Target_exited

(** One drained batch of target-side evidence: raw coverage records, raw
    cmp-ring bytes and UART output, exactly as the link's fused vBatch
    drain returns them. The native backend fills the same shape from the
    probe's own counted read, so the campaign's decode path is shared
    bit-for-bit between backends. *)
type drained = Eof_debug.Covlink.drained = {
  n_records : int;
  records_raw : string;
  n_cmp : int;
  cmp_raw : string;
  log : string;
}

type t

val create :
  ?obs:Eof_obs.Obs.t ->
  ?transport:Eof_debug.Transport.t ->
  ?inject:Eof_debug.Inject.config ->
  Osbuild.t ->
  (t, Eof_util.Eof_error.t) result
(** The debug-link backend. Boots nothing yet — the first [continue]
    starts the agent. Fails if the RSP handshake over the transport
    fails.

    When [obs] is given it is threaded into the transport and session
    (unless a pre-built [transport] is supplied), and its clock is bound
    to this machine's {!virtual_elapsed_s} — events are timestamped in
    virtual time, making traces deterministic.

    [inject] attaches a deterministic link-fault injector to the
    transport (whether supplied or created here); omitted means a clean
    link. *)

val create_native :
  ?obs:Eof_obs.Obs.t ->
  Osbuild.t ->
  (t, Eof_util.Eof_error.t) result
(** The native transplant backend: agent, personality and probe
    in-process, no transport, no session. Both backends build the probe
    with the same continue quantum, so stop schedules match. There
    is no fault injector to attach — link faults cannot
    exist off the link.

    With [obs], the bus clock is bound to board CPU time only (the
    native {!virtual_elapsed_s}), preserving the virtual-clock
    determinism guarantee without any transport term. *)

val backend : t -> backend

val obs : t -> Eof_obs.Obs.t
(** The bus this machine emits on (an inert private bus when none was
    supplied at creation). *)

val session : t -> Eof_debug.Session.t
(** Link backend only — the raw RSP session, for baselines and bench
    code that measure the link itself.
    @raise Invalid_argument on a native machine. *)

val virtual_elapsed_s : t -> float
(** Virtual wall time — the clock campaign budgets are measured
    against. Link: board CPU time plus debug-link latency. Native:
    board CPU time only (there is no link to charge). *)

val cpu_elapsed_s : t -> float
(** Target CPU time only, excluding any link latency. Identical on
    both backends for the same payload schedule, so schedulers that
    must interleave boards backend-invariantly (the farm's min-CPU
    scheduler, hence the differential farm oracle) key on this rather
    than on {!virtual_elapsed_s}. *)

(** {2 Backend-neutral target operations}

    Each dispatches to the RSP session (link) or to the engine/board
    directly (native). Result types match the session's so the campaign
    code is backend-blind; on the native backend the link-failure arms
    are simply unreachable. *)

val continue_ : t -> (stop, Eof_util.Eof_error.t) result
(** Resume for one quantum. Native: {!Eof_debug.Openocd.resume}, the
    same call the probe's [c] packet makes. *)

val continue_and_drain :
  ?write:int * string ->
  t ->
  want_cmp:bool ->
  (stop * drained, Eof_util.Eof_error.t) result
(** The fused hot path, on both backends: deliver the optional staged
    mailbox image, resume one quantum, then drain coverage records, the
    cmp ring (when [want_cmp]) and UART, clamping each counter to
    capacity and resetting it target-side.

    Link: one [vBatch] exchange through {!Eof_debug.Covlink}, bumping
    the [covlink.*] counters. Native: {!Eof_hw.Board.read_counted}, the
    routine the [vBatch] counted op runs, bumping the [native.*]
    counters. The byte stream entering the campaign's decoders is
    identical either way. *)

val read_counted : t -> Eof_cov.Sancov.Layout.counted -> string
(** The per-request counted read, built from {!read_u32}, a memory
    read and {!write_u32}: read the counter word, clamp it to [max_count],
    and only when the clamped count [n] is positive read [n] entries of
    [stride] bytes from [data_addr] and zero the counter. Returns the
    entries ([n = String.length result / stride]); any failed read
    returns [""] and leaves the counter alone. *)

val read_u32 : t -> addr:int -> (int32, Eof_util.Eof_error.t) result

val write_u32 : t -> addr:int -> int32 -> (unit, Eof_util.Eof_error.t) result

val write_mem : t -> addr:int -> string -> (unit, Eof_util.Eof_error.t) result

val set_breakpoint : t -> int -> (unit, Eof_util.Eof_error.t) result

val read_pc : t -> (int, Eof_util.Eof_error.t) result

val drain_uart : t -> (string, Eof_util.Eof_error.t) result

val last_fault : t -> (string, Eof_util.Eof_error.t) result
(** Empty string when no fault is latched. *)

val reset_target : t -> (unit, Eof_util.Eof_error.t) result
(** {!Eof_debug.Openocd.reset} (native), or the RSP reset monitor
    command that runs it (link). Emits a [Reset_board] event either
    way. *)

val resync : t -> (unit, Eof_util.Eof_error.t) result
(** Link: flush the decoder and confirm the stub answers. Native: a
    no-op success — there is no link to desynchronize. *)

val inject_gpio : t -> pin:int -> level:bool -> (unit, Eof_util.Eof_error.t) result

val flash_erase : t -> addr:int -> len:int -> (unit, Eof_util.Eof_error.t) result

val flash_write : t -> addr:int -> string -> (unit, Eof_util.Eof_error.t) result

val flash_done : t -> (unit, Eof_util.Eof_error.t) result

(** {2 Copy-on-write snapshots}

    The O(dirty pages) alternative to partition reflash, held in the
    probe's single snapshot slot on both backends. Link: the
    [QSnapshot] RSP extension. Native: {!Eof_debug.Openocd.snapshot_save}
    and [snapshot_restore] called directly. The save/restore cost model
    is charged to the board clock either way, so CPU-time digests stay
    backend-invariant. *)

val has_snapshot : t -> bool
(** A successful {!snapshot_save} happened on this machine — the signal
    {!Eof_core.Liveness.restore} uses to take the snapshot fast path. *)

val snapshot_save : t -> (int, Eof_util.Eof_error.t) result
(** Capture a pristine snapshot of RAM + flash; returns the device
    pages covered. Emits [Snapshot_save] and bumps [snapshot.saves].
    Take it right after install, before the target runs. *)

val snapshot_restore : t -> (int, Eof_util.Eof_error.t) result
(** Copy back only pages written since the save (or previous restore);
    returns the pages copied. Emits [Snapshot_restore] and bumps
    [snapshot.restores] / [snapshot.pages_copied]. Callers follow with
    {!reset_target}, exactly like the reflash path. *)
