(** The simulated probe link (JTAG/SWD adapter + USB cable).

    Synchronous request/response byte shuttle between the host session
    and the OpenOCD-like server; every exchange is charged per-byte
    latency. Link failures come from one place: an optional {!Inject.t}
    fault injector riding the transport drops or mangles individual
    exchanges on a seeded deterministic schedule (see {!Inject}) — a
    low-rate schedule is a lossy probe, [kill_after = Some n] a dead
    one. That is how the connection-timeout watchdog and the recovery
    escalation ladder are exercised without real flaky hardware. *)

type t

val create : ?obs:Eof_obs.Obs.t -> unit -> t
(** A link with no injector (see {!set_injector}). Its cost model is two
    named constants of the implementation, the same for every link:
    [byte_latency_us = 1.0] per byte either way (~1 MBaud SWD), plus
    [exchange_overhead_us = 40.0] per exchange (probe/USB turnaround) —
    the round-trip cost that makes batched exchanges pay.

    When [obs] is given, every round trip emits an
    [Exchange {tx; rx; timeout}] event and bumps the
    [transport.exchanges]/[transport.timeouts]/[transport.bytes_tx]/
    [transport.bytes_rx] counters; injected faults emit [Link_fault]
    and bump [transport.faults]. *)

val set_injector : t -> Inject.t option -> unit

val note_reset : t -> unit
(** Tell the injector (if any) that the target was just reset, arming
    the post-reset-garbage fault. The session calls this from
    [reset_target]. *)

val charge_us : t -> float -> unit
(** Advance the link's virtual clock without an exchange — retry
    backoff waits are charged here so recovery costs deterministic
    virtual time, not host wall time. *)

val exchange : t -> server:(string -> string) -> string -> (string, Eof_util.Eof_error.t) result
(** Push request bytes through the link to [server]; return its response
    bytes. [Error] is always [Eof_error.Link_timeout] — a dropped
    request (server never called) or a lost response (server {e did}
    execute). Response-mangling faults
    (truncate/NAK-storm/garbage) return [Ok] with the mangled bytes;
    the session's decoder surfaces those as [Link_desync]. *)

val elapsed_us : t -> float
(** Accumulated link latency (host-side wall model). *)

val exchanges : t -> int
