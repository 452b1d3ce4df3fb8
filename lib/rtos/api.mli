(** API tables: the typed surface an OS personality exposes to the
    execution agent and — via the generated Syzlang specifications — to
    the fuzzer.

    Each entry carries the machine-readable signature the spec
    synthesizer exports (argument types with value constraints, resource
    production/consumption) plus the handler the agent invokes. This is
    the single source of truth the paper obtains from headers + LLM
    extraction. *)

type arg_type =
  | A_int of { min : int64; max : int64 }  (** inclusive numeric range *)
  | A_flags of (string * int64) list  (** named OR-able flag values *)
  | A_str of { max_len : int }  (** NUL-free text *)
  | A_buf of { max_len : int }  (** raw bytes *)
  | A_ptr of { base : int; size : int; null_ok : bool }
      (** a pointer into target RAM (the spec knows the memory layout
          from the build-analysis step); [null_ok] admits NULL as a
          semi-valid value APIs are expected to reject *)
  | A_res of string  (** a resource kind, e.g. ["msgq"] *)

type value =
  | V_int of int64
  | V_str of string
  | V_res of int  (** resolved kernel-object handle *)

type outcome = {
  status : int64;
  created : (string * int) option;  (** resource kind, handle *)
}

type entry = {
  name : string;
  args : (string * arg_type) list;
  ret : [ `Status | `Resource of string ];
  doc : string;
  weight : int;  (** relative generation weight, >= 1 *)
  handler : value list -> outcome;
}

type table = { os : string; entries : entry list }

val make_table : os:string -> entry list -> table
(** Wrap a personality's entries. Checks nothing: a personality builds
    its table on every boot, with fresh handlers but the same shape, so
    [Osbuild.make] runs {!validate} on it once per build, before
    any payload runs. *)

val validate : table -> unit
(** Check the table's shape: unique entry names, positive weights, and
    every consumed resource kind produced by some entry. Messages name
    [Api.make_table], the constructor of the table at fault.
    @raise Invalid_argument on the first violation, checking names, then
    weights, then resource kinds, each in entry order. *)

val resource_kinds : table -> string list
(** All kinds produced by some entry, sorted. *)

(** Handler-side argument accessors. Each checks position and variant
    and returns [Error Kerr.einval] on mismatch, so handlers degrade
    into API errors (not OCaml exceptions) on bad calls. *)

val get_int : value list -> int -> (int64, int64) result

val get_str : value list -> int -> (string, int64) result

val get_buf : value list -> int -> (string, int64) result

val get_res : value list -> int -> (int, int64) result

val ok_status : outcome

val status : int64 -> outcome

val created : kind:string -> handle:int -> outcome

val arg_type_to_string : arg_type -> string
