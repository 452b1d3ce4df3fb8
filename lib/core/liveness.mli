open Eof_os

(** Liveness watchdogs and state restoration (the paper's Algorithm 1).

    Two host-side checks with no target instrumentation: a
    connection-timeout watchdog (a dead link means a failed boot or
    total unresponsiveness) and a PC-stall watchdog (continues that
    leave the program counter where it was on 3 consecutive checks mean
    the core cannot execute; the threshold is a constant).
    Either verdict triggers {!restore}: reflash every partition from the
    golden image at the offsets recorded in the partition table, then
    reboot.

    All operations go through the backend-polymorphic
    {!Eof_agent.Machine}, so the same watchdog and restoration ladder
    drive both the debug-link and the native transplant backends (on
    native, the connection-lost verdict is unreachable — there is no
    link to lose). *)

type verdict =
  | Alive
  | First_observation  (** LastPC was unset; now armed (Algorithm 1 lines 6-8) *)
  | Connection_lost
  | Pc_stalled of int

type error = Eof_util.Eof_error.t
(** Typed restoration failure — stringly only at the reporting
    boundary. Link failures mid-restore carry the partition name, the
    failing step (erase / chunk offset / done) and the session's retry
    count as context breadcrumbs; a partition without an image blob is
    [Missing_blob]. *)

val error_to_string : error -> string

type t

val create : ?obs:Eof_obs.Obs.t -> unit -> t
(** With [obs], every {!check} emits a [Liveness_verdict] event. *)

val stall_streak : t -> int
(** Current consecutive-repeat count (0 after progress or {!reset}). *)

val reset : t -> unit
(** Forget LastPC and the stall streak (call when the target
    demonstrably made progress). *)

val check : t -> Eof_agent.Machine.t -> verdict
(** One LivenessWatchDog() evaluation. [Pc_stalled] requires the PC to
    repeat on 3 consecutive checks (the stall threshold, a constant);
    any new PC value resets the streak and yields [Alive]. *)

val restore_partitions :
  ?obs:Eof_obs.Obs.t ->
  Eof_agent.Machine.t ->
  flash_base:int ->
  image:Eof_hw.Image.t ->
  table:Eof_hw.Partition.t ->
  (int, error) result
(** Reflash each [table] entry from [image]'s blobs in 2048-byte chunks
    (no reboot); returns the number of partitions written. Emits a
    [Reflash_partition] event per partition. Exposed separately from
    {!restore} so tests can drive hand-built tables (missing-blob error
    path, odd-sized final chunks). *)

val restore :
  ?obs:Eof_obs.Obs.t ->
  Eof_agent.Machine.t -> build:Osbuild.t -> (int, error) result
(** StateRestoration(): make every partition pristine and reboot;
    returns the number of partitions restored. When the machine has an
    armed snapshot ({!Eof_agent.Machine.has_snapshot}), one
    O(dirty pages) snapshot restore replaces the partition-by-partition
    reflash — same end state, a fraction of the link traffic; otherwise
    each partition is rewritten from the golden image. Emits
    [Reflash_partition] events (full path) or a [Snapshot_restore]
    (fast path) and a final [Restore_done]. When [obs] is omitted the
    machine's own bus is used. *)

val reboot_only : Eof_agent.Machine.t -> (unit, error) result
(** A plain reset, for degraded states with an intact image. *)
