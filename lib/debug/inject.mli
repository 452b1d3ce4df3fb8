(** Deterministic debug-link fault injection.

    A seeded schedule of the failures real JTAG/SWD probes exhibit:
    dropped requests, lost responses, truncated frames, NAK storms and
    post-reset garbage. The injector sits inside {!Transport.exchange};
    every decision is drawn from its own SplitMix64 stream in exchange
    order, so the same seed over the same exchange sequence injects the
    same faults — campaigns under fault injection replay bit-identically.

    Faults arrive in {e bursts}: when one fires, the next few exchanges
    (up to [max_burst]) fault too, as a glitching probe does. Bursts are
    what drive the recovery ladder past its first rung — a lone fault is
    cured by a retry, a burst outlives the retry budget and forces a
    resync or reset. *)

type fault =
  | Drop  (** request lost: the server never sees it; safe to re-send *)
  | Timeout
      (** response lost: the server {e did} execute; a retry re-runs it *)
  | Truncate  (** response cut mid-frame *)
  | Nak_storm  (** response replaced by a run of NAKs *)
  | Garbage
      (** response replaced by junk bytes — only armed by
          {!note_reset}, modelling a probe desynced by a target reset *)

val fault_name : fault -> string

type config = {
  rate : float;  (** per-exchange probability of starting a fault burst *)
  seed : int64;
  max_burst : int;  (** longest burst of consecutive faulted exchanges *)
  kill_after : int option;
      (** after this many exchanges the link dies permanently (every
          further exchange drops) — the dead-board scenario *)
}

val default_config : config
(** rate 0, seed 0x1NJ3C7 (inert until the rate is raised), bursts up
    to 6, no kill. *)

type t

val create : config -> t

val config : t -> config

(** What to do to one exchange. *)
type decision =
  | Pass
  | Fault of fault

val decide : t -> decision
(** Draw the next exchange's fate. Consumes RNG in exchange order —
    the determinism contract. *)

val mangle : t -> fault -> string -> string
(** The bytes the host actually receives for a response-mangling fault
    ([Truncate]/[Nak_storm]/[Garbage]). [Drop]/[Timeout] have no bytes
    to mangle and return [""]. *)

val note_reset : t -> unit
(** Arm post-reset garbage: the next fault drawn while armed is
    [Garbage]. Called by the session when it resets the target. *)

val force_next : t -> fault -> unit
(** Queue one forced fault for the next exchange (tests aim a specific
    fault at a specific exchange type with this). *)

val history : t -> (int * fault) list
(** Every injected fault as [(exchange index, kind)], chronological —
    the determinism test compares two histories. *)
