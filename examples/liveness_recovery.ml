(* Liveness management demo (Algorithm 1): corrupt the flash image,
   watch the PC-stall watchdog detect the failed boot, and restore the
   system by reflashing every partition over the debug link.

   Run with:  dune exec examples/liveness_recovery.exe *)

open Eof_hw
open Eof_os
open Eof_agent
module Session = Eof_debug.Session
module Liveness = Eof_core.Liveness

let ok = function
  | Ok v -> v
  | Error e ->
    prerr_endline ("debug session error: " ^ Session.error_to_string e);
    exit 1

let () =
  let build = Osbuild.make ~board_profile:Profiles.esp32_devkitc Freertos.spec in
  let machine =
    match Machine.create build with
    | Ok m -> m
    | Error e -> failwith (Eof_util.Eof_error.to_string e)
  in
  let session = Machine.session machine in
  let syms = Osbuild.syms build in
  let board = Osbuild.board build in
  ok (Session.set_breakpoint session syms.Osbuild.sym_executor_main);

  (* Healthy boot first. *)
  (match ok (Session.continue_ session) with
   | Session.Stopped_breakpoint _ -> print_endline "1. target booted, agent waiting"
   | _ -> failwith "no boot");
  print_string (ok (Session.drain_uart session));

  (* A buggy test case scribbles the kernel partition in flash (we do it
     directly here; bug #13-style behaviour would do it from inside). *)
  let kernel = Option.get (Partition.find (Board.partition_table board) "kernel") in
  Flash.corrupt (Board.flash board)
    ~addr:(Flash.base (Board.flash board) + kernel.Partition.offset + 0x1000)
    "!! flash corruption from a runaway kernel write !!";
  print_endline "2. kernel partition scribbled in flash; rebooting";
  ok (Session.reset_target session);

  (* Algorithm 1, watchdog side: exec-continue fails to move the PC. *)
  let watchdog = Liveness.create () in
  (match ok (Session.continue_ session) with
   | Session.Stopped_quantum pc ->
     Printf.printf "3. continue stopped at 0x%08x (no agent breakpoint: suspicious)\n" pc
   | _ -> failwith "expected a quantum stop");
  (match Liveness.check watchdog machine with
   | Liveness.First_observation -> print_endline "4. watchdog armed (LastPC recorded)"
   | _ -> failwith "expected first observation");
  (* The watchdog only declares a stall after the PC repeats on
     three consecutive checks — a single repeat is routine
     (polling loops, breakpoint parking) and must not trigger a
     reflash. *)
  let rec wait_for_stall repeats =
    (match ok (Session.continue_ session) with
     | Session.Stopped_quantum _ -> ()
     | _ -> failwith "expected another quantum stop");
    match Liveness.check watchdog machine with
    | Liveness.Pc_stalled pc ->
      Printf.printf
        "5. PC stalled at 0x%08x after %d repeated samples -> unrecoverable state\n"
        pc repeats
    | Liveness.Alive -> wait_for_stall (repeats + 1)
    | _ -> failwith "unexpected watchdog verdict"
  in
  wait_for_stall 1;
  print_string (ok (Session.drain_uart session));

  (* Algorithm 1, restoration side: reflash every partition, reboot. *)
  (match Liveness.restore machine ~build with
   | Ok n -> Printf.printf "6. reflashed %d partitions from the golden image\n" n
   | Error e -> failwith (Liveness.error_to_string e));
  (match ok (Session.continue_ session) with
   | Session.Stopped_breakpoint _ ->
     print_endline "7. target booted again; fuzzing resumes without manual intervention"
   | _ -> failwith "restore failed");
  Printf.printf "\nBoard stats: %d power cycles, %d flash sector erases\n"
    (Board.power_cycles board)
    (Flash.erase_count (Board.flash board))
