(** Framed hub protocol: the typed messages a hub and its worker farms
    (and submitting clients) exchange.

    Every message travels as one self-delimiting frame:

    {v
    magic "EOFH" (u32) | version (u16) | kind (u8) | reserved (u8) |
    payload_len (u32) | payload | crc32 (u32)
    v}

    all little-endian — this is a host-to-host protocol with no target
    byte order to match, unlike {!Eof_agent.Wire}. The CRC covers
    everything after the magic (version through payload), so corruption
    anywhere in the negotiated content — including the length field —
    is detected; the magic itself is the stream-resync sentinel.
    Programs inside [Corpus_push]/[Corpus_pull] and crash reports are
    carried as {!Eof_agent.Wire}-encoded byte strings: the hub protocol
    frames them, the agent wire format describes them. *)

type status_row = {
  campaign : int;
  tenant : string;
  os : string;
  finished : bool;
  shards : int;
  shards_done : int;
  executed : int;
  coverage : int;
  crashes : int;  (** per-tenant deduplicated crash count *)
}

type worker_row = {
  worker : int;  (** hub-assigned worker id *)
  name : string;
  alive : bool;
  leases : int;  (** active (assigned, unfinished) shard leases *)
}

type t =
  | Submit of Tenant.config  (** client → hub: run this campaign *)
  | Accept of { campaign : int; tenant : string }  (** hub → client *)
  | Reject of { tenant : string; reason : string }  (** hub → client *)
  | Shard_assign of Shard.assignment
      (** hub → worker; [assignment.epoch] is the lease epoch the worker
          must echo on everything it sends back for this shard *)
  | Corpus_push of { campaign : int; shard : int; epoch : int; progs : string list }
      (** worker → hub: newly admitted exchange-corpus programs,
          {!Eof_agent.Wire}-encoded *)
  | Corpus_pull of { campaign : int; shard : int; progs : string list }
      (** hub → worker: programs transplanted from sibling shards (or
          the bootstrap corpus replayed at reassignment) *)
  | Crash_report of { campaign : int; shard : int; epoch : int; crash : Eof_core.Crash.t }
      (** worker → hub *)
  | Heartbeat of {
      campaign : int;
      shard : int;
      epoch : int;
      executed : int;
      coverage : int;
      edge_capacity : int;
      virtual_s : float;
      bitmap : string;  (** {!Eof_util.Bitset.to_bytes} coverage snapshot *)
    }  (** worker → hub, once per farm epoch *)
  | Status_req  (** client → hub *)
  | Status of { rows : status_row list; workers : worker_row list }
      (** hub → client *)
  | Cancel of { campaign : int }  (** client → hub, hub → worker *)
  | Shard_done of {
      campaign : int;
      shard : int;
      epoch : int;
      executed : int;
      iterations : int;
      crash_events : int;
      virtual_s : float;
    }  (** worker → hub *)
  | Campaign_done of { campaign : int; tenant : string; digest : string }
      (** hub → client: all shards finished; [digest] is the tenant's
          deterministic campaign digest *)
  | Worker_hello of { name : string }
      (** worker → hub: first message on a worker connection *)
  | Worker_welcome of { worker : int; heartbeat_timeout_s : float }
      (** hub → worker: registration reply — the worker must be heard
          from at least every [heartbeat_timeout_s] or its leases are
          revoked *)
  | Shard_revoke of { campaign : int; shard : int; epoch : int }
      (** hub → worker: the lease at [epoch] is withdrawn; stop working
          the shard and send nothing more for it *)
  | Worker_ping of { worker : int }
      (** worker → hub: liveness when there is nothing else to say *)
  | Heartbeat_ack of { worker : int }
      (** hub → worker: ack of a [Heartbeat] or [Worker_ping] — silence
          here tells the worker the hub is gone *)

type error =
  | Truncated  (** shorter than its header claims — wait for more bytes *)
  | Bad_magic
  | Bad_version of int
  | Bad_crc
  | Malformed of string

val error_to_string : error -> string

val kind_name : t -> string
(** Stable lowercase name for telemetry ("submit", "corpus-push", ...). *)

val farm_header : t -> (int * int * int) option
(** [(campaign, shard, epoch)] of a farm frame ([Corpus_push],
    [Crash_report], [Heartbeat], [Shard_done]); [None] for every other
    kind. *)

val encode_prog : Eof_core.Prog.t -> string option
(** A program as it travels in [Corpus_push]/[Corpus_pull]: the
    little-endian {!Eof_agent.Wire} encoding. [None] if it does not
    encode. *)

val decode_prog :
  spec:Eof_spec.Ast.t -> table:Eof_rtos.Api.table -> string -> Eof_core.Prog.t option
(** Inverse of {!encode_prog}, rebound through a personality;
    [None] on bytes that do not decode or do not bind. *)

val encode : t -> string
(** One complete frame. Raises [Invalid_argument] if a string field
    exceeds the u16 length limit. *)

val decode : string -> (t, error) result
(** Decode exactly one frame. [Error Truncated] if the buffer is
    shorter than the frame; [Error (Malformed _)] if longer. *)

val frame_size : string -> (int option, error) result
(** Stream framing helper: given a buffer prefix, [Ok None] if the
    12-byte header is not yet complete, [Ok (Some n)] once the total
    frame size [n] is known, [Error Bad_magic] on a bad sentinel. *)

val header_bytes : int

val version : int
(** Current wire version (v4 added the worker lifecycle messages and
    lease epochs; v5 dropped the generator-mode byte from tenant
    configs and shard assignments). Decoding any other version is
    [Bad_version], and {!Journal.replay} refuses a journal holding such
    a frame. *)
