open Eof_os

(** Application-level fuzzing on hardware over the debug link — the
    common skeleton behind the GDBFuzz and SHIFT baselines.

    Inputs are opaque byte buffers fed to a single application entry
    point ([http_request] / [json_parse]); there is no API awareness and
    no call sequencing. What differs between the two tools is the
    guidance signal:

    - [Bp_sampling n]: GDBFuzz's mechanism — up to [n] hardware
      breakpoints planted on not-yet-covered basic-block sites; an input
      is interesting when it trips one. Reported coverage still comes
      from the (experiment-only) instrumentation ground truth, matching
      the paper's measurement methodology.
    - [Edge_feedback]: SHIFT's mechanism — semihosting-assisted SanCov
      edge feedback, i.e. the true coverage buffer guides the corpus. *)

type guidance = Bp_sampling of int | Edge_feedback

type config = {
  seed : int64;
  iterations : int;
  entry_api : string;  (** the single API fed with the buffer *)
  max_buf : int;
  guidance : guidance;
  sample_modules : string list;  (** site pools for [Bp_sampling] *)
}

val run : config -> Osbuild.t -> (Eof_core.Campaign.outcome, Eof_util.Eof_error.t) result
