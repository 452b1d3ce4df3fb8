let raw s = Eof_exec.Target.uart_tx s

let line s =
  raw s;
  raw "\n"

let tagged ~os tag msg =
  if tag = "" then line (Printf.sprintf "[%s] %s" os msg)
  else line (Printf.sprintf "[%s] %s: %s" os tag msg)

let info ~os msg = tagged ~os "" msg

let err ~os msg = tagged ~os "ERROR" msg

let assert_failed ~os msg = tagged ~os "ASSERTION FAILED" msg

let panic_banner ~os msg = tagged ~os "KERNEL PANIC" msg
