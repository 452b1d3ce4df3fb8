(** The log monitor: scan redirected UART output for crash-indicating
    patterns, per the paper's "output matching predefined patterns". The
    patterns are the fixed-shape lines Klog emits (panic banner, assertion
    report, backtrace frame), so each is matched by prefix rather than by
    a regular expression. *)

type detection =
  | Panic_banner of { os : string; message : string }
  | Assertion_failure of { os : string; message : string }
  | Backtrace_frame of string  (** "path : function : line" *)

val scan : string -> detection list
(** All detections in a chunk of log text, in order. *)

val assert_operation : string -> string option
(** The function name an assertion message starts with
    (["rt_object_init: ..."] -> [Some "rt_object_init"]). *)

val collect_backtrace : detection list -> string list

val first_panic : detection list -> (string * string) option
(** (os, message) of the first panic banner, if any. *)

val first_assertion : detection list -> (string * string) option
