(** Coalesced coverage drain over the debug link.

    The per-stop host choreography — read the coverage write index, read
    the present records, reset the index, read the cmp-ring counter, read
    the operand pairs, reset the counter, drain the UART — is six-plus
    link round trips on the per-request path. This module folds the
    whole drain, fused with the continue that produced the stop, into
    ONE [vBatch] exchange, the optimisation the paper's host hot path
    lives on: round trips, not bytes, dominate debug-link time. The
    campaign reaches it through [Eof_agent.Machine.continue_and_drain].

    Results come back raw; the campaign decodes them into its per-state
    scratch arrays with {!Eof_cov.Sancov.decode_records_into} /
    [decode_cmp_ring_into], so the steady-state drain allocates nothing
    proportional to the record count. *)

type t

type drained = {
  n_records : int;  (** decoded record count present in [records_raw] *)
  records_raw : string;  (** raw little/big-endian u32 records *)
  n_cmp : int;  (** operand-pair count present in [cmp_raw] *)
  cmp_raw : string;  (** raw operand pairs, 8 bytes each *)
  log : string;  (** UART output drained at this stop *)
}

val create : session:Session.t -> layout:Eof_cov.Sancov.Layout.t -> t
(** Every exchange needs a stub that advertised [vBatch+]; against one
    that did not, each {!continue_and_drain} returns {!Session.batch}'s
    typed error. *)

val continue_and_drain :
  ?write:int * string ->
  t ->
  want_cmp:bool ->
  (Session.stop * drained, Session.error) result
(** The fused hot-path exchange: continue to the next stop, then drain
    records (+ cmp ring when [want_cmp]) + UART, resetting both
    target-side counters — still one round trip. The stop is decoded
    exactly as {!Session.continue_} would decode it. A failed drain
    sub-operation yields its zero slice (counter untouched
    server-side), to be drained again at the next stop.

    [?write:(addr, image)] prepends a binary memory write, executed
    server-side before the continue: delivering a test case into the
    mailbox rides the same exchange as the continue that consumes it. A
    rejected write aborts the batch result with [Remote _] rather than
    continuing past it. *)
