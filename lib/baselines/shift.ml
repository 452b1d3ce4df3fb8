open Eof_os

let run ~seed ~iterations ~entry_api build =
  if Osbuild.os_name build <> "FreeRTOS" then
    Error
      (Eof_util.Eof_error.config
         (Printf.sprintf "SHIFT is only adapted to FreeRTOS, not %s" (Osbuild.os_name build)))
  else
    (* Semihosting traps the core into the debugger on every sanitizer
       and coverage access, roughly halving throughput relative to the
       breakpoint-only tools; budgets here stand for wall clock, so
       SHIFT gets proportionally fewer payloads. *)
    let iterations = iterations / 2 in
    Appfuzz.run
      {
        Appfuzz.seed;
        iterations;
        entry_api;
        max_buf = 256;
        guidance = Appfuzz.Edge_feedback;
        sample_modules = [];
      }
      build
