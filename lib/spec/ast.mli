(** Abstract syntax of the API-specification language.

    A dialect of Syzkaller's Syzlang, restricted to what embedded OS
    APIs need: typed scalar arguments with value constraints, named flag
    sets, bounded strings/buffers, and resources produced by one call
    and consumed by others. Pseudo-syscalls ([syz_*]) describe composite
    operations the agent implements as a sequence. *)

type ty =
  | Ty_int of { min : int64; max : int64 }
  | Ty_flags of (string * int64) list
  | Ty_str of { max_len : int }
  | Ty_buf of { max_len : int }
  | Ty_ptr of { base : int; size : int; null_ok : bool }
  | Ty_res of string

type call = {
  name : string;
  args : (string * ty) list;
  ret : string option;  (** resource kind produced *)
  weight : int;
  doc : string;
}

type t = { os : string; resources : string list; calls : call list }

val is_pseudo : call -> bool
(** [syz_]-prefixed calls. *)

val find_call : t -> string -> call option

val producers : t -> string -> call list

val to_syzlang : t -> string
(** Render as specification text (inverse of {!Parser.parse} up to
    comments and whitespace). *)

val same_shape : ty -> ty -> bool
(** Structural shape equality with every parameter erased (ranges,
    lengths, pointer windows, resource kinds). *)

val equal : t -> t -> bool
