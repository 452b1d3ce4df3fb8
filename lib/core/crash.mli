(** Crash records and deduplication. *)

type kind =
  | Kernel_panic
  | Kernel_assertion
  | Hardware_fault  (** raw bus/usage fault that bypassed the panic handler *)
  | Hang  (** PC stall caught by the liveness watchdog *)
  | Boot_failure

type monitor = Log_monitor | Exception_monitor | Liveness_watchdog | Timeout_only

type t = {
  os : string;
  kind : kind;
  operation : string;  (** the API call in progress (Table 2's column) *)
  scope : string;  (** subsystem, from the crash site's module block *)
  message : string;
  backtrace : string list;
  detected_by : monitor;
  program : string;  (** the triggering program, pretty-printed *)
  iteration : int;
}

val dedup_key : t -> string
(** Crashes with equal keys are the same bug: (kind, operation). *)

(** The deduplicated crash set every campaign driver and merger keeps:
    the first record per {!dedup_key}, in discovery order. *)
module Ledger : sig
  type crash := t

  type t

  val create : unit -> t

  val add : t -> crash -> bool
  (** Record one crash; [true] iff it is the first with its key (later
      records of a known key are dropped, not merged). *)

  val add_all : t -> crash list -> unit
  (** {!add} each crash in list order. *)

  val to_list : t -> crash list
  (** The kept records in discovery order. *)

  val distinct : t -> int
  (** Number of kept records, O(1). *)

  val clear : t -> unit
  (** Forget every record. *)
end

val kind_name : kind -> string

val monitor_name : monitor -> string

val summary : t -> string
(** One line: kind, operation, message head. *)
