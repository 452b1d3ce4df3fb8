(** Instrumentation-site address allocation.

    A site map is built once per OS image ("at compile time"): each
    kernel/app module claims a block of sites, and every site gets a
    4-byte-aligned address in the flash text section. The host uses the
    same map to translate site addresses in coverage records back to
    dense edge indices for its bitmap, and to resolve the well-known
    symbols (agent binding points, panic handlers) it sets breakpoints
    on. *)

type t

type block = { name : string; base : int; count : int }

val create : text_base:int -> t
(** [text_base] is where the text section starts (usually just past the
    bootloader partition in flash). *)

val alloc : t -> name:string -> count:int -> block
(** Claim [count] consecutive sites for module [name].
    @raise Invalid_argument on a duplicate name or non-positive count. *)

val site_addr : block -> int -> int
(** [site_addr block i] is the flash address of the block's [i]-th site.
    @raise Invalid_argument if [i] is out of the block's range. *)

val site_count : t -> int
(** Total sites allocated so far. *)

val index_of_addr : t -> int -> int option
(** Dense site index of a site address ([None] if the address is not an
    allocated site). *)

val blocks : t -> block list
(** Allocation order. *)
