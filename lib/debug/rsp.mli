(** GDB Remote Serial Protocol: framing, escaping, and the command
    vocabulary EOF needs.

    All host-target interaction travels as RSP byte streams over the
    simulated probe link, so the protocol layer is real: packets are
    framed as [$payload#xx] with a mod-256 checksum, binary payloads use
    [}]-escaping, and malformed input is rejected the way a picky stub
    would reject it.

    Each end renders what it sends into one {!Out.t}. Every parse entry
    point reads its fields through one cursor and fails with
    [Eof_error.Protocol] — malformed wire data is a protocol error by
    definition. Binary sections ([vFlashWrite] data, [vBatch] segments)
    escape [$], [#], [}] and [*] as [}(c lxor 0x20)]. *)

val parse_hex_int : string -> (int, string) result
(** One hex number field, as every RSP packet and reply carries them:
    hex digits only (no sign, ["0x"] or ['_']) and at most [max_int]. An
    empty field, any other byte, or a larger value is an [Error]. *)

(** A reusable output buffer. Each end of the link owns one and renders
    every frame it sends into it, so sending a packet costs one
    allocation, the bytes {!contents} returns. *)
module Out : sig
  type t

  val create : unit -> t

  val clear : t -> unit

  val add_char : t -> char -> unit

  val open_frame : t -> unit
  (** Start a frame: the ['$']. *)

  val close_frame : t -> unit
  (** End the open frame: ['#'] and the checksum of what was added
      since {!open_frame}. *)

  val contents : t -> string
end

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
  (** Events completed by these bytes, in order. A frame whose end is in
      the chunk is decoded from it in one pass; a partial frame is
      buffered. Any cut of a byte stream into chunks gives the same
      events. *)
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
  | Batch of batch_op array
      (** [vBatch:] multi-operation exchange, ops [;]-separated. The
          probe parses every op before it runs any, so a malformed op
          anywhere makes the whole packet a parse error and no op
          runs. *)
  | Snapshot_save
      (** [QSnapshot:save] — capture a board-side copy-on-write
          snapshot; reply is [S<hex pages covered>] *)
  | Snapshot_restore
      (** [QSnapshot:restore] — copy dirty pages back from the saved
          snapshot; reply is [S<hex pages copied>] *)

val add_command : Out.t -> command -> unit
(** Client side: the command's packet payload (escaped where needed). *)

val parse_command : string -> (command, Eof_util.Eof_error.t) result
(** Parse a packet payload: the whole of it, so trailing bytes are an
    error. *)

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

val add_reply : Out.t -> pc_reg:int -> reply -> unit
(** Render a reply payload. [pc_reg] is the architecture's PC register
    number for [T] stop replies. *)

val parse_reply : pc_reg:int -> string -> (reply, Eof_util.Eof_error.t) result
(** Client side. [Raw] is returned for payloads that match no structured
    form; callers with context (e.g. after [m]) interpret it. *)

val hex_data : string -> (string, Eof_util.Eof_error.t) result
(** A [Raw] payload read as hex data, two digits per byte: the reply to
    [m] or [g], or [qRcmd] output. *)

(** {2 Batch sub-replies}

    A [vBatch] reply is ['b'] and one sub-reply per op, positionally
    matched and [;]-separated. The probe renders each straight into its
    {!Out.t}; the host reads them in place with {!Replies}. *)

type sub_reply =
  | Sub_ok
  | Sub_error  (** {!Replies.value} is the error code *)
  | Sub_data  (** raw bytes (read result or monitor text) *)
  | Sub_counted
      (** {!Replies.value} is the raw (unclamped) counter value,
          {!Replies.data} the clamped data span *)
  | Sub_stop  (** a stop-reply payload, read with {!Replies.stop} *)
  | Sub_end  (** past the last sub-reply *)

val add_sub_ok : Out.t -> unit

val add_sub_error : Out.t -> int -> unit

val add_sub_data : Out.t -> string -> unit

val add_sub_counted : Out.t -> count:int -> string -> unit

val add_sub_stop : Out.t -> pc_reg:int -> reply -> unit
(** The stop reply ({!add_reply}) as a sub-reply. *)

(** A reader over the sub-replies of one batch reply. *)
module Replies : sig
  type t

  val read : string -> pos:int -> (t, Eof_util.Eof_error.t) result
  (** Check every sub-reply from offset [pos] to the end of the payload
      (so a caller can skip the leading ['b'] without a copy). The
      reader then yields them in order. *)

  val length : t -> int
  (** How many sub-replies the payload holds. *)

  val next : t -> sub_reply
  (** Move to the next sub-reply and say what it is. The accessors
      below read the sub-reply {!next} last moved to. *)

  val value : t -> int

  val data : t -> string
  (** The unescaped data of a [Sub_data], [Sub_counted] or [Sub_stop];
      [""] for the others. *)

  val stop : t -> pc_reg:int -> (reply, Eof_util.Eof_error.t) result
  (** A [Sub_stop]'s payload, parsed in place as {!parse_reply} would
      parse {!data}. *)
end
