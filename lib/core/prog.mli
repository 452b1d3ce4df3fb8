open Eof_spec

(** Typed test-case programs: call sequences over a validated
    specification, one level above the wire format. *)

type arg = Int of int64 | Str of string | Res of int  (** producing call's position *)

type call = { spec : Ast.call; api_index : int; args : arg list }

type t = call list

val to_wire : t -> Eof_agent.Wire.program

val of_wire :
  spec:Ast.t -> table:Eof_rtos.Api.table -> Eof_agent.Wire.program -> (t, string) result
(** Rebind a wire program to a typed program against [spec]/[table] —
    the inverse of {!to_wire} for corpus transfer between processes
    fuzzing the same personality. Each call's [api_index] is resolved
    through the table to its spec entry, then the whole program is
    {!validate}d. *)

val length : t -> int

val hash : t -> int
(** Stable content hash for corpus deduplication. *)

val validate : t -> (unit, string) result
(** Structural sanity: resource references point at earlier calls that
    produce the kind the argument expects, and argument counts match the
    spec. Generation and mutation must only emit programs that pass. *)

val to_string : t -> string
(** Human-readable listing used in crash reports. *)
