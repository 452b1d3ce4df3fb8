(** The observability spine: one typed event bus shared by every layer of
    the execution stack.

    The host side of on-hardware fuzzing is a long-running control loop
    over a flaky debug link; what makes it debuggable is being able to
    {e see} what the stack is doing — exchanges, stops, drains, liveness
    verdicts, reflashes, epoch syncs. Every layer emits typed
    {!Event.t}s through a bus handle; pluggable {!sink}s render them
    (human console, JSONL trace file, in-memory for tests) and monotonic
    {!Counter}s accumulate totals that flow into [BENCH.json].

    {b Determinism.} Events are timestamped by the bus clock, which the
    machine layer binds to the board's {e virtual} time (CPU cycles +
    modelled link latency) — never the host wall clock. The farm
    schedules its boards deterministically, so the emission order is a
    pure function of the campaign seed, so two runs of the same command produce
    bit-identical JSONL traces ([cmp] clean).

    {b Cost.} A bus with no sinks is inert: {!emit} is one mutable-flag
    check, and counters are pre-resolved [int ref]s. Attaching a sink is
    what turns the firehose on. With no sink attached, campaign and farm
    outcomes are byte-identical to a build without any bus at all — this
    is a reporting plane, not a data plane. *)

module Level : sig
  type t = Trace | Debug | Info | Warn | Error

  val of_string : string -> (t, string) result
end

(** Flat field values: everything an event carries renders to one of
    these, which keeps the JSONL schema trivially parseable. *)
type value = V_int of int | V_float of float | V_str of string | V_bool of bool

module Event : sig
  type t =
    | Exchange of { tx : int; rx : int; timeout : bool }
        (** one transport round trip (request/response byte counts) *)
    | Batch of { ops : int }  (** a vBatch exchange carrying [ops] sub-ops *)
    | Stop of { kind : string; pc : int }
        (** target stop: ["breakpoint"], ["quantum"], ["fault"], ["exited"] *)
    | Flash_op of { op : string; addr : int; len : int }
        (** ["erase"] / ["write"] / ["done"] over the debug link *)
    | Drain of { records : int; cmp : int; log_bytes : int; fused : bool }
        (** one coverage/cmp/UART drain; [fused] = rode a continue *)
    | Liveness_verdict of { verdict : string; pc : int }
        (** watchdog outcome; [pc] is -1 when not applicable *)
    | Reflash_partition of { partition : string; bytes : int }
    | Restore_done of { partitions : int }  (** Algorithm 1 completed *)
    | Snapshot_save of { pages : int }
        (** copy-on-write snapshot captured; [pages] = device pages covered *)
    | Snapshot_restore of { dirty : int }
        (** snapshot restored; [dirty] = pages actually copied back *)
    | Reset_board
    | Payload of { iteration : int; status : string; new_edges : int }
        (** one campaign payload: ["completed"] / ["crashed"] /
            ["rejected"] / ["aborted"] *)
    | Crash_found of { kind : string; operation : string }
    | Corpus_admit of { new_edges : int; size : int }
    | Seed_scheduled of { energy : int; frontier : bool }
        (** the energy schedule granted a seed a multi-mutation budget
            (emitted only under [--schedule energy]) *)
    | Transplant_retyped of {
        from_os : string;
        to_os : string;
        kept : int;
        dropped : int;
      }
        (** the hub retyped a seed across personalities before adoption *)
    | Epoch_sync of { sync : int; executed : int; coverage : int }
        (** farm epoch merge *)
    | Link_fault of { fault : string; exchange : int }
        (** the injector mangled/dropped this exchange: ["drop"],
            ["timeout"], ["truncate"], ["nak-storm"], ["garbage"] *)
    | Recovery of { rung : string; attempt : int }
        (** one step of the link-recovery escalation ladder: ["retry"],
            ["resync"], ["reset"], ["reflash"], ["dead"] *)
    | Worker_joined of { worker : int; name : string }
        (** a worker endpoint registered with the hub *)
    | Worker_lost of { worker : int; leases : int }
        (** the hub declared a worker dead (EOF or heartbeat deadline);
            [leases] shards were revoked for reassignment *)
    | Shard_reassigned of {
        campaign : int;
        shard : int;
        epoch : int;  (** the new lease epoch *)
        from_worker : int;
        to_worker : int;
      }  (** a revoked shard lease moved to a surviving worker *)
    | Lease_fenced of { campaign : int; shard : int; epoch : int; kind : string }
        (** a message carrying a stale lease epoch was dropped;
            [kind] is the message kind name *)
    | Journal_replay of { frames : int; campaigns : int; reset : int }
        (** a restarted hub replayed its journal: [campaigns] restored,
            of which [reset] were unfinished and restarted from scratch *)
    | Span of { name : string; dur_us : float }
    | Message of { level : Level.t; text : string }

  val name : t -> string
  (** Stable kebab-case tag, the JSONL ["ev"] field. *)
end

type t
(** A bus handle: shared sinks/counters plus a per-handle board tag and
    clock. Handles are cheap; derive one per board with {!for_board}. *)

type sink

val create : unit -> t
(** A fresh, inert bus (no sinks, clock stuck at 0). *)

val for_board : t -> int -> t
(** A handle that stamps every event with a board index. Shares sinks
    and counters with the parent but carries its own clock, so each
    board's events are timestamped by that board's virtual time. *)

val for_tenant : t -> string -> t
(** A handle that stamps every event with a tenant id — the hub derives
    one per campaign so a shared fleet bus can be demultiplexed into
    per-tenant traces. Shares sinks and counters with the parent;
    composes with {!for_board} (tenant first, then board). *)

val set_clock : t -> (unit -> float) -> unit
(** Bind this handle's timestamp source (virtual seconds). The machine
    layer calls this with the board's virtual-time function. *)

val active : t -> bool
(** True once any sink is attached — emission sites use this to skip
    event construction entirely on the null path. *)

val add_sink : t -> sink -> unit

val emit : t -> Event.t -> unit
(** No-op (one flag check) when no sink is attached. Thread-safe: sink
    dispatch is serialized through an internal mutex, so a bus may be
    shared across domains. *)

val message : t -> Level.t -> string -> unit

module Counter : sig
  type bus = t

  type t
  (** A pre-resolved monotonic counter: increments are one [int ref]
      bump, no hash lookup on the hot path. *)

  val make : bus -> string -> t
  (** Find-or-create the named counter. Handles made from the same name
      on the same bus alias the same count. *)

  val incr : t -> unit

  val add : t -> int -> unit
end

val counter_value : t -> string -> int
(** 0 when the counter was never created. *)

val counters : t -> (string * int) list
(** Snapshot of every counter, sorted by name (deterministic). *)

(** {2 Spans}

    A span measures the virtual time between {!span_begin} and
    {!span_end}; ending it emits a {!Event.Span} and accumulates
    [span.<name>.count] / [span.<name>.us] counters. *)

type span_kind
(** A span name with its two counters, resolved once on the bus it was
    made on rather than looked up at every end. *)

val span_kind : t -> string -> span_kind

type span

val span_begin : t -> span_kind -> span

val span_end : t -> span -> unit

(** {2 Sinks} *)

val console_sink : ?min_level:Level.t -> unit -> sink
(** Human-readable lines on [stderr], at [Info] and above by default —
    log output never pollutes result stdout (digest lines stay
    [cmp]-clean). *)

val jsonl_sink : ?min_level:Level.t -> out_channel -> sink
(** One JSON object per event, every level by default. The flat schema
    is parsed back by {!Trace}. *)

val memory_sink :
  ?min_level:Level.t -> unit -> sink * (unit -> (float * int option * Event.t) list)
(** For tests: the closure returns every event seen so far in order. *)

val sink :
  ?min_level:Level.t ->
  (t:float -> board:int option -> tenant:string option -> Event.t -> unit) ->
  sink
(** A custom sink from a bare function. *)

val event_to_json : t:float -> board:int option -> tenant:string option -> Event.t -> string
(** The exact line {!jsonl_sink} writes (without the newline). *)

val json_escape : string -> string
(** The body of a JSON string literal (no surrounding quotes): quote,
    backslash and control characters escaped. *)
