(** A worker endpoint: drives the {!Eof_core.Farm}s the hub leases to it
    and speaks {!Protocol} back.

    Like the hub it is transport-agnostic and clock-free: {!handle}
    consumes one decoded message, {!step} advances the earliest board of
    the earliest shard by one payload, and both return the messages the
    worker wants delivered to the hub. At every farm epoch boundary the
    worker flushes what is new — the exchange-corpus programs admitted
    since the shard's admission cursor ({!Protocol.t.Corpus_push}; see
    {!Eof_core.Corpus.since}), newly deduplicated crashes
    ({!Protocol.t.Crash_report}), and a coverage-bitmap heartbeat — and
    on shard completion it finalises the farm and reports
    {!Protocol.t.Shard_done}. Everything sent for a shard echoes the
    lease epoch from its {!Protocol.t.Shard_assign}, so a hub that has
    since revoked the lease can fence it.

    Lifecycle: the transport sends {!hello} as the first frame; the
    hub's [Worker_welcome] reply (fed back through {!handle}) binds the
    hub-assigned {!id} and heartbeat deadline. A [Shard_revoke] freezes
    the named shard ({!Eof_core.Farm.pause}) without emitting anything —
    the hub has already written that work off. *)

type target = {
  mk_build : int -> Eof_os.Osbuild.t;  (** per-board build, as {!Eof_core.Farm.init} *)
  spec : Eof_spec.Ast.t;
  table : Eof_rtos.Api.table;
      (** personality surface, for rebinding transplanted wire programs *)
}

type t

val create :
  ?obs:Eof_obs.Obs.t ->
  name:string ->
  resolve:(string -> (target, string) result) ->
  unit ->
  t
(** Farm telemetry is emitted on [Obs.for_tenant obs tenant] handles, so
    every event the worker's farms produce carries its tenant. *)

val id : t -> int
(** Hub-assigned worker id; -1 until the [Worker_welcome] arrives. *)

val name : t -> string

val heartbeat_timeout_s : t -> float option
(** The liveness deadline the hub announced at welcome; [None] until
    then. Socket workers ping well inside it when otherwise silent. *)

val hello : t -> Protocol.t
(** The registration frame the transport must send first. *)

val handle : t -> Protocol.t -> (Protocol.t list, string) result
(** Feed one hub → worker message ([Worker_welcome], [Heartbeat_ack],
    [Shard_assign], [Shard_revoke], [Corpus_pull], [Cancel]); any other
    kind is dropped with a warning on the bus. A [Shard_assign] the
    worker cannot build (an OS it cannot resolve, a config
    {!Eof_core.Farm.init} rejects) is an [Error] naming the cause; no
    other message fails. Transplanted programs are rebound
    through the shard's own personality and admitted via
    {!Eof_core.Farm.adopt}; the shard's admission cursor then moves past
    them, so no transplant is ever pushed back to the hub. *)

val step : t -> Protocol.t list
(** Execute one payload on the shard whose next board is earliest on
    its virtual clock; returns the epoch flush (or the final flush plus
    [Shard_done]) when the step crossed a boundary, [[]] otherwise. *)

val next_cpu_s : t -> float option
(** Virtual time of this worker's earliest runnable board; [None] when
    idle — the in-process driver's scheduling key. *)

val transplanted : t -> int
(** Programs received by pull and actually admitted into shard corpora. *)
