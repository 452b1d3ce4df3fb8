open Eof_hw

(** The test-case wire format.

    Programs travel from the host fuzzer into the target mailbox as a
    flat byte stream of fixed-width fields in the *target's* endianness,
    so the on-target agent can decode them with nothing but integer
    loads — the paper's "primitive operations only" requirement. Strings
    are length-prefixed; resource arguments reference the producing
    call's index, which the agent resolves against its local results
    array at execution time. *)

type arg =
  | W_int of int64
  | W_str of string
  | W_res of int  (** index of the producing call within the program *)

type call = { api_index : int; args : arg list }

type program = call list

val magic : int32
(** ["EOFP"] in the target byte order. *)

val max_calls : int
(** 64. *)

val encode : endianness:Arch.endianness -> program -> (string, string) result
(** Host side. Validates the limits. *)

val encode_into :
  endianness:Arch.endianness -> Buffer.t -> program -> (unit, string) result
(** Like {!encode} but appending into a caller-owned buffer, so a hot
    loop can clear and reuse one pre-sized buffer instead of allocating
    per program. The buffer is untouched on validation failure. *)

val decode : endianness:Arch.endianness -> string -> (program, string) result
(** Pure decoder (tests, corpus tools). *)

val decode_from_ram :
  mem:Memory.t -> endianness:Arch.endianness -> base:int -> (program, string) result
(** Target side: read the mailbox. Expects [magic], then [u32 len], then
    [len] bytes of encoded program. *)

val write_to_ram :
  mem:Memory.t -> endianness:Arch.endianness -> base:int -> limit:int -> program ->
  (unit, string) result
(** Host-side helper used by tests and the emulation-based baselines
    (which bypass the debug link): place [magic]+len+payload at [base]. *)

(** Result summary the agent writes back after executing a program. *)
module Results : sig
  type t = { executed : int; statuses : int32 list }

  val write : mem:Memory.t -> endianness:Arch.endianness -> base:int -> t -> unit

  val read :
    raw:string -> endianness:Arch.endianness -> (t, string) result
  (** Decode from bytes fetched over the debug link. *)

  val byte_size : int -> int
  (** Bytes occupied by a summary of [n] calls. *)
end
