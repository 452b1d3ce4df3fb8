(** Per-module instrumentation handles.

    When an OS image is built, each kernel/app module receives a site
    block and an [Instr.t] wrapping the SanCov runtime; module code calls
    [cmp]/[edge] with site indices local to its block. Host-side code
    that runs module code without an engine (build-time table
    extraction, unit tests) does so under {!Eof_exec.Target.run_silent}. *)

type t

val of_sancov : sancov:Eof_cov.Sancov.t -> block:Eof_cov.Sitemap.block -> t

val site_addr : t -> int -> int
(** Absolute flash address of local site [i].
    @raise Invalid_argument when out of range. *)

val cmp : t -> int -> int64 -> int64 -> unit
(** [cmp t i a b]: cross local site [i] recording a comparison. *)

val edge : t -> int -> unit

val cmp_i : t -> int -> int -> int -> unit
(** [cmp] for OCaml ints. *)
