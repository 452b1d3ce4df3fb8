(** A small RAM filesystem (Figure 1's "file systems handle data
    storage" layer).

    Flat namespace, fixed file-count and size limits, contents stored in
    kernel-heap blocks in board RAM — so filesystem writes are physical
    and a corrupted heap takes the filesystem down with it, as on a real
    MCU. *)

type t

val create : heap:Heap.t -> max_files:int -> max_file_bytes:int -> t

type fd

val open_ : t -> path:string -> create:bool -> write:bool -> (fd, int64) result
(** [Kerr.enoent] when missing without [create]; [Kerr.enospc] when the
    file table is full; [Kerr.einval] on empty/oversized paths. *)

val write : t -> fd -> string -> (int, int64) result
(** Append. [Kerr.eperm] on read-only descriptors, [Kerr.enospc] past
    the per-file limit or when the heap cannot back the data. *)

val read : t -> fd -> max:int -> (string, int64) result
(** Read from the descriptor's offset, advancing it. Empty string at
    end of file. *)

val close : t -> fd -> (unit, int64) result
(** Double close is [Kerr.einval]. *)

val unlink : t -> path:string -> (unit, int64) result
(** Frees the file's storage. Open descriptors to it go stale and
    subsequent reads/writes fail with [Kerr.enoent]. *)

val size_of : t -> path:string -> int option
