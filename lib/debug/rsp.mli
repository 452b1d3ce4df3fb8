(** GDB Remote Serial Protocol: framing, escaping, and the command
    vocabulary EOF needs.

    All host-target interaction travels as RSP byte streams over the
    simulated probe link, so the protocol layer is real: packets are
    framed as [$payload#xx] with a mod-256 checksum, binary payloads use
    [}]-escaping, and malformed input is rejected the way a picky stub
    would reject it. *)

val checksum : string -> int
(** Sum of payload bytes mod 256. *)

val make_frame : string -> string
(** [$payload#xx]. The payload must already be escaped. *)

val escape_binary : string -> string
(** Escape [$], [#], [}] and [*] as [}(c lxor 0x20)] for binary payload
    sections (as used by [vFlashWrite]). *)

val unescape_binary : string -> (string, Eof_util.Eof_error.t) result
(** All parse entry points in this module fail with
    [Eof_error.Protocol] — malformed wire data is a protocol error by
    definition. *)

(** Incremental frame decoder. Feed raw bytes; collect events. *)
module Decoder : sig
  type t

  type event =
    | Packet of string  (** checksum-validated payload, still escaped *)
    | Ack
    | Nak
    | Break  (** 0x03 interrupt byte *)
    | Bad_checksum of string

  val create : unit -> t

  val feed : t -> string -> event list
  (** Events completed by these bytes, in order. Partial frames are
      buffered. *)
end

(** One sub-operation of a [vBatch] exchange. A batch carries several
    read/write/monitor/continue operations in a single framed packet so
    a whole coverage drain costs one link round trip instead of six. *)
type batch_op =
  | B_continue  (** run one continue quantum; sub-reply is the stop *)
  | B_read of { addr : int; len : int }
  | B_write of { addr : int; data : string }  (** data raw (unescaped) *)
  | B_read_counted of {
      count_addr : int;  (** address of a u32 element counter *)
      data_addr : int;  (** base of the counted data area *)
      stride : int;  (** bytes per element *)
      max_count : int;  (** clamp for the counter *)
      reset : bool;  (** write 0 back to the counter after reading *)
    }
      (** Server-side indirect read: fetch the counter, return
          [min counter max_count] elements in one reply, optionally
          resetting the counter — the whole
          read-index/read-data/reset-index dance of a coverage drain as
          one sub-operation. *)
  | B_monitor of string  (** qRcmd text, raw *)

(** One sub-reply, positionally matching the batch's sub-operations. *)
type batch_reply =
  | Br_ok
  | Br_data of string  (** raw bytes (read result or monitor text) *)
  | Br_counted of { count : int; data : string }
      (** raw (unclamped) counter value plus the clamped data span *)
  | Br_stop of string  (** an unparsed stop-reply payload *)
  | Br_error of int

val render_batch_ops : batch_op list -> string
(** The [vBatch:] payload body (escaped, self-delimiting). *)

val parse_batch_ops : string -> (batch_op list, Eof_util.Eof_error.t) result

val render_batch_replies : ?prefix:string -> batch_reply list -> string
(** The sub-replies, [;]-separated, after [prefix] (default empty; the
    stub passes the reply packet's leading ["b"]). *)

val parse_batch_replies :
  ?pos:int -> string -> (batch_reply list, Eof_util.Eof_error.t) result
(** Parse the sub-replies starting at offset [pos] (default 0), so a
    caller can skip a packet prefix without copying the payload. *)

(** Host-to-target commands, parsed from packet payloads. *)
type command =
  | Q_supported of string
  | Read_mem of { addr : int; len : int }
  | Write_mem of { addr : int; data : string }
  | Insert_breakpoint of int
  | Remove_breakpoint of int
  | Continue
  | Step
  | Read_registers
  | Halt_reason
  | Flash_erase of { addr : int; len : int }
  | Flash_write of { addr : int; data : string }  (** data unescaped *)
  | Flash_done
  | Monitor of string  (** qRcmd, decoded from hex *)
  | Kill
  | Batch of batch_op list  (** [vBatch:] multi-operation exchange *)
  | Snapshot_save
      (** [QSnapshot:save] — capture a board-side copy-on-write
          snapshot; reply is [S<hex pages covered>] *)
  | Snapshot_restore
      (** [QSnapshot:restore] — copy dirty pages back from the saved
          snapshot; reply is [S<hex pages copied>] *)

val parse_command : string -> (command, Eof_util.Eof_error.t) result
(** Parse an unescaped packet payload. *)

val render_command : command -> string
(** Client side: payload text for a command (escaped where needed). *)

(** Target-to-host replies. *)
type stop_info = {
  signal : int;  (** 5 = TRAP (breakpoint/fault), 2 = INT (quantum) *)
  pc : int;
  detail : string;  (** "swbreak", "fault:<msg>", "quantum" *)
}

type reply =
  | Ok_reply
  | Error_reply of int
  | Hex_data of string  (** raw bytes, hex-encoded on the wire *)
  | Stop of stop_info
  | Exited of int
  | Supported of string
  | Raw of string  (** uninterpreted payload (qRcmd output, [g] dump) *)

val render_reply : pc_reg:int -> reply -> string
(** [pc_reg] is the architecture's PC register number for [T] stop
    replies. *)

val parse_reply : pc_reg:int -> string -> (reply, Eof_util.Eof_error.t) result
(** Client side. [Raw] is returned for payloads that match no structured
    form; callers with context (e.g. after [m]) interpret it. *)
