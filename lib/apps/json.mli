(** JSON component (parser and encoder), as shipped in the Zephyr/ESP-IDF
    middleware the paper fuzzes at application level.

    Both directions are instrumented branch-by-branch through an
    {!Eof_rtos.Instr.t} handle, so coverage-guided fuzzers see parser
    state distinctions. The encoder enforces a nesting-depth limit;
    exceeding it returns [`Too_deep], which the Zephyr personality turns
    into the [json_obj_encode] kernel panic (bug #3). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val site_count : int
(** Sites an instrumentation block for this module must provide. *)

val parse : instr:Eof_rtos.Instr.t -> string -> (t, string) result

val encode : instr:Eof_rtos.Instr.t -> ?max_depth:int -> t -> (string, [ `Too_deep ]) result
(** Default [max_depth] is 16. *)

val depth : t -> int
