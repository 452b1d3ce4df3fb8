open Eof_spec

(** Cross-personality seed transplantation.

    The hub's corpus exchange is lossless between shards of the same
    personality; between personalities the API tables differ, so a seed
    must be retyped before it can be adopted. {!retype} matches calls by
    resource signature (argument shapes in order, by {!Ast.same_shape},
    plus whether the call produces a resource), drops the unmappable ones,
    remaps surviving resource references and re-fits scalar arguments to
    the destination types, then revalidates. The whole mapping is
    deterministic — no randomness — so transplants replay exactly. *)

type outcome = {
  prog : Prog.t;  (** the retyped program, well-typed for the destination *)
  kept : int;  (** calls that survived the mapping *)
  dropped : int;  (** calls with no compatible destination *)
}

val retype :
  dst_spec:Ast.t -> dst_table:Eof_rtos.Api.table -> Prog.t -> outcome option
(** Retype [prog] (admitted under some other personality) against the
    destination spec/table. [None] when no call maps or the result fails
    {!Prog.validate} — a rejected transplant is simply not relayed.
    Guaranteed validate-clean on success. *)
