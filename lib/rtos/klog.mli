(** Kernel logging to the UART.

    All kernel and app output goes through here and ends up in the
    board's UART FIFO, which the host redirects to its stdout channel and
    scans with the log monitor. Severity tags are stable strings the
    monitor's prefix matchers key on. *)

val line : string -> unit
(** Transmit the string plus a newline. *)

val info : os:string -> string -> unit
(** ["[<os>] <msg>\n"]. *)

val err : os:string -> string -> unit
(** ["[<os>] ERROR: <msg>\n"]. *)

val assert_failed : os:string -> string -> unit
(** The assertion-failure line the log monitor matches:
    ["[<os>] ASSERTION FAILED: <msg>\n"]. *)

val panic_banner : os:string -> string -> unit
(** The panic line: ["[<os>] KERNEL PANIC: <msg>\n"]. *)
