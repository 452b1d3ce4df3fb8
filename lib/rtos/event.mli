(** Event flag groups (32 flags per group). *)

type e = private { mutable flags : int; mutable sends : int }

type Kobj.payload += Event of e

val create : reg:Kobj.t -> name:string -> Kobj.obj

val send : e -> int -> unit
(** OR the given flag bits in. *)

val recv : e -> mask:int -> all:bool -> clear:bool -> (int, int64) result
(** Check the mask against pending flags ([all] = every bit must be
    set, otherwise any). On success returns the matched flags, clearing
    them if [clear]. [Kerr.eagain] when unsatisfied, [Kerr.einval] on an
    empty mask. *)

val of_obj : Kobj.obj -> e option
