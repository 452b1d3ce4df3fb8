(** Typed host-side debug session: the fuzzer's only window onto the
    target.

    Every method round-trips an RSP packet through the transport to the
    probe server. Failures surface as {!Eof_util.Eof_error.t}:
    [Link_timeout] is the signal the connection-timeout liveness
    watchdog consumes, [Link_desync] means bytes arrived but no frame
    decoded, [Remote]/[Protocol] are the stub's own answers.

    Every command is rendered and framed in one buffer the session
    keeps. Link-level failures ({!Eof_util.Eof_error.retryable}) are
    retried {e inside} each request (rung 1 of the recovery escalation
    ladder): 3 attempts, with a backoff of 200 us doubling to a 5 ms
    ceiling charged to the transport's virtual clock. An error after a
    retry carries an ["after N attempts"] breadcrumb. On a clean link
    the loop is inert and behaviour is bit-identical to a retry-free
    session. *)

type error = Eof_util.Eof_error.t

(** The probe's stop classification, decoded from its stop reply. *)
type stop = Openocd.stop =
  | Stopped_breakpoint of int
  | Stopped_quantum of int
  | Stopped_fault of int
  | Target_exited

type t

val connect :
  ?obs:Eof_obs.Obs.t -> transport:Transport.t -> server:Openocd.t -> unit ->
  (t, error) result
(** Performs the [qSupported] handshake.

    With [obs], the session emits [Batch]/[Stop]/[Flash_op]/[Reset_board]
    events, a [Recovery {rung="retry"}] event per link retry, and bumps
    [session.batches]/[session.batch_ops]/[session.flash_ops]/
    [session.stops]/[session.retries] counters. *)

val set_retry : t -> int -> unit
(** Set the attempts per request, the first included (default 3; the
    backoff schedule is unchanged). One attempt restores
    fail-on-first-loss behaviour; fewer is [Invalid_argument]. *)

val resync : t -> (unit, error) result
(** Recover from a desynced link without touching the target: discard
    the decoder's partial-frame state and confirm the stub answers a
    halt-reason query. Rung 2 of the escalation ladder. *)

val read_mem : t -> addr:int -> len:int -> (string, error) result

val write_mem : t -> addr:int -> string -> (unit, error) result
(** Hex [M] packet (2 payload bytes per data byte). *)

val batch : t -> Rsp.batch_op array -> (Rsp.Replies.t, error) result
(** One [vBatch] exchange of [ops]. All sub-operations execute
    server-side in order, and the sub-replies come back positionally
    matched in a single framed response. The reader holds exactly one
    sub-reply per op. Counts as one request and one transport exchange
    regardless of how many sub-operations it carries. *)

val decode_stop : t -> Rsp.Replies.t -> (stop, error) result
(** Interpret the reader's current [Sub_stop] exactly as [continue_]
    would interpret the same reply. *)

val read_u32 : t -> addr:int -> (int32, error) result
(** Convenience word read honouring the target's endianness. *)

val write_u32 : t -> addr:int -> int32 -> (unit, error) result

val set_breakpoint : t -> int -> (unit, error) result

val remove_breakpoint : t -> int -> (unit, error) result

val continue_ : t -> (stop, error) result

val read_pc : t -> (int, error) result
(** Extracted from a [g] register dump. *)

val flash_erase : t -> addr:int -> len:int -> (unit, error) result

val flash_write : t -> addr:int -> string -> (unit, error) result

val flash_done : t -> (unit, error) result

val snapshot_save : t -> (int, error) result
(** Ask the stub to capture a board-side copy-on-write snapshot; returns
    the number of device pages it covers. The saved pages never cross
    the link — the host keeps only the right to ask for a restore. *)

val snapshot_restore : t -> (int, error) result
(** Copy pages written since the save (or the previous restore) back
    from the stub-side snapshot; returns the number of pages copied —
    the O(dirty pages) alternative to a full partition reflash. Fails
    with [Remote 0x23] if no snapshot was saved. *)

val reset_target : t -> (unit, error) result
(** Resets the target and arms the injector's post-reset-garbage fault
    (see {!Transport.note_reset}). *)

val inject_gpio : t -> pin:int -> level:bool -> (unit, error) result
(** Peripheral event injection: flip a GPIO pin on the target board. *)

val drain_uart : t -> (string, error) result

val last_fault : t -> (string, error) result

val requests : t -> int

val obs : t -> Eof_obs.Obs.t
(** The bus this session emits on (an inert private bus when none was
    supplied to {!connect}). *)

val error_to_string : error -> string
(** Alias of {!Eof_util.Eof_error.to_string}, kept at the session
    boundary for convenience. *)
