type kind = Kernel_panic | Kernel_assertion | Hardware_fault | Hang | Boot_failure

type monitor = Log_monitor | Exception_monitor | Liveness_watchdog | Timeout_only

type t = {
  os : string;
  kind : kind;
  operation : string;
  scope : string;
  message : string;
  backtrace : string list;
  detected_by : monitor;
  program : string;
  iteration : int;
}

let kind_name = function
  | Kernel_panic -> "Kernel Panic"
  | Kernel_assertion -> "Kernel Assertion"
  | Hardware_fault -> "Hardware Fault"
  | Hang -> "Hang"
  | Boot_failure -> "Boot Failure"

let monitor_name = function
  | Log_monitor -> "log"
  | Exception_monitor -> "exception"
  | Liveness_watchdog -> "watchdog"
  | Timeout_only -> "timeout"

let dedup_key t = Printf.sprintf "%s/%s/%s" t.os (kind_name t.kind) t.operation

module Ledger = struct
  type crash = t

  type t = { keys : (string, unit) Hashtbl.t; mutable rev : crash list }

  let create () = { keys = Hashtbl.create 16; rev = [] }

  let add t c =
    let key = dedup_key c in
    if Hashtbl.mem t.keys key then false
    else begin
      Hashtbl.replace t.keys key ();
      t.rev <- c :: t.rev;
      true
    end

  let add_all t cs = List.iter (fun c -> ignore (add t c : bool)) cs

  let to_list t = List.rev t.rev

  let distinct t = Hashtbl.length t.keys

  let clear t =
    Hashtbl.reset t.keys;
    t.rev <- []
end

let summary t =
  let head =
    if String.length t.message <= 72 then t.message else String.sub t.message 0 72 ^ "..."
  in
  Printf.sprintf "[%s] %s in %s(): %s" t.os (kind_name t.kind) t.operation head
