(** Human-readable crash reports and campaign summaries. *)

val crash_to_text : Crash.t -> string
(** Full report: identity header, detection channel, message, the
    captured backtrace, and the triggering program. *)

val save_crashes : dir:string -> Crash.t list -> (string list, string) result
(** Write one report per crash into [dir] (created if missing) as
    [crash-NN-<operation>.txt]; returns the paths written. *)

val digest_line :
  label:string ->
  coverage:int ->
  bitmap:Eof_util.Bitset.t ->
  corpus:Prog.t list ->
  crashes:Crash.t list ->
  crash_events:int ->
  executed:int ->
  iterations_done:int ->
  string
(** A wall-clock-free fingerprint of observable campaign results:
    coverage bitmap bits, corpus program hashes, crash dedup keys and
    the headline counts, CRC'd into one printable line. Virtual time is
    deliberately excluded — the determinism CI and the link/native
    differential oracle both compare digests, and the two backends agree
    on results but not on clocks. *)

val campaign_digest : Campaign.outcome -> string

val farm_digest : Farm.outcome -> string

val fleet_digest : (string * string) list -> string
(** [(tenant, digest_line)] pairs — the per-tenant campaign digests of a
    hub run — CRC'd in tenant order into one fleet-level fingerprint, so
    multi-tenant fleet soaks are [cmp]-checkable the same way single
    campaigns and farms are. Order-insensitive: pairs are sorted by
    tenant before hashing. *)
