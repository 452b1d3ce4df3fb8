(** Table 1 — supported targets of EOF, GDBFuzz, Tardis and SHIFT.

    A static capability matrix: which (system, architecture) pairs each
    tool supports, from the tools' published support lists. Rendered to
    match the paper's layout. *)

val render : unit -> string
