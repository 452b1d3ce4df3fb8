(** Hardware fault model.

    Faults are how target-side failures surface to the execution engine:
    an out-of-range memory access raises a bus fault, kernel panics raise
    usage faults via the OS personality's exception handler, and anything
    escaping those becomes a hard fault. The engine catches {!Trap} and
    parks the target at the board's fault-handler address, where the
    host's exception monitor has a breakpoint. *)

type kind =
  | Bus_fault  (** access outside a mapped region, or to a stale device *)
  | Usage_fault  (** illegal operation: misaligned access, div by zero *)
  | Hard_fault  (** unrecoverable escalation *)
  | Mem_manage_fault  (** allocator metadata corruption detected *)

type t = {
  kind : kind;
  address : int option;  (** faulting address when meaningful *)
  message : string;  (** human-readable diagnosis, surfaces in crash logs *)
}

exception Trap of t

val bus : ?address:int -> string -> 'a
(** Raise a bus fault. *)

val usage : ?address:int -> string -> 'a

val mem_manage : ?address:int -> string -> 'a

val kind_name : kind -> string

val to_string : t -> string
