(** Recursive mutexes owned by tasks. *)

type m = private { mutable owner : int option; mutable depth : int }

type Kobj.payload += Mutex of m

val create : reg:Kobj.t -> name:string -> Kobj.obj

val lock : m -> owner:int -> (unit, int64) result
(** Recursive for the same owner; [Kerr.ebusy] if held by another
    task. *)

val unlock : m -> owner:int -> (unit, int64) result
(** [Kerr.eperm] when not the owner. *)

val of_obj : Kobj.obj -> m option
