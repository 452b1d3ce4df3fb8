(** Reader side of the JSONL trace format written by {!Obs.jsonl_sink}.

    The writer emits flat JSON objects (numbers, strings, booleans — no
    nesting), so a minimal hand-rolled parser suffices and the obs
    library stays dependency-free. [eof trace FILE] uses this module to
    turn a trace into a campaign post-mortem: time-per-phase breakdown,
    exchange totals, coverage growth. *)

type line = {
  t : float;  (** virtual timestamp (seconds) *)
  board : int option;
  tenant : string option;  (** hub campaigns tag events per tenant *)
  ev : string;  (** event tag, e.g. ["exchange"], ["payload"] *)
  fields : (string * Obs.value) list;  (** remaining payload, in file order *)
}

val parse_line : string -> (line, string) result
(** Parse one JSONL line. Errors on malformed JSON, a missing ["t"], or
    a missing ["ev"] field. *)

type summary = {
  events : int;
  bad_lines : int;  (** lines that failed to parse (skipped) *)
  boards : int;  (** distinct board tags seen (0 for single-board traces) *)
  t_last : float;  (** largest timestamp = virtual duration of the trace *)
  by_event : (string * int) list;  (** event-tag counts, sorted by tag *)
  exchanges : int;
  timeouts : int;
  bytes_tx : int;
  bytes_rx : int;
  batches : int;  (** vBatch exchanges *)
  batch_ops : int;  (** sub-ops carried by vBatch exchanges *)
  payloads : int;
  crashes : int;
  corpus_admits : int;
  new_edges : int;  (** sum of per-payload new edges *)
  coverage_final : int option;  (** global coverage at the last epoch sync *)
  spans : (string * int * float) list;  (** name, count, total microseconds *)
  growth : (float * int) list;
      (** (timestamp, cumulative new edges) at each edge-finding payload *)
}

val summarize : string Seq.t -> summary
(** Summarize a sequence of raw JSONL lines; unparseable lines are
    counted in [bad_lines], not fatal. *)

val of_file : string -> summary
(** Raises [Sys_error] when the file cannot be opened. *)

val render : summary -> string
(** Human-readable report ([eof trace] output). *)
