open Eof_hw
open Eof_exec

let make_engine entry =
  let board = Board.create Profiles.stm32f4_disco in
  (board, Engine.create ~board ~fault_vector:0xDEAD ~entry)

let test_run_to_exit () =
  let _, e =
    make_engine (fun () ->
        Target.site 0x100;
        Target.site 0x104;
        Target.site 0x108)
  in
  (match Engine.run e ~fuel:100 with
   | Engine.Exited -> ()
   | _ -> Alcotest.fail "expected exit");
  Alcotest.(check int) "final pc" 0x108 (Engine.pc e);
  Alcotest.(check int64) "sites" 3L (Engine.sites_executed e);
  match Engine.run e ~fuel:1 with
  | Engine.Exited -> ()
  | _ -> Alcotest.fail "terminal not sticky"

let test_fuel_exhaustion () =
  let _, e =
    make_engine (fun () ->
        for i = 0 to 9 do
          Target.site (0x100 + (4 * i))
        done)
  in
  (match Engine.run e ~fuel:4 with
   | Engine.Fuel_exhausted -> ()
   | _ -> Alcotest.fail "expected fuel stop");
  Alcotest.(check int) "pc after 4 sites" 0x10C (Engine.pc e);
  match Engine.run e ~fuel:100 with
  | Engine.Exited -> ()
  | _ -> Alcotest.fail "expected exit on resume"

let test_breakpoint () =
  let _, e =
    make_engine (fun () ->
        Target.site 0x100;
        Target.site 0x104;
        Target.site 0x108)
  in
  Engine.set_breakpoint e 0x104;
  (match Engine.run e ~fuel:100 with
   | Engine.Breakpoint_hit pc -> Alcotest.(check int) "bp pc" 0x104 pc
   | _ -> Alcotest.fail "expected breakpoint");
  (* Resume steps past the breakpointed site. *)
  match Engine.run e ~fuel:100 with
  | Engine.Exited -> ()
  | _ -> Alcotest.fail "expected exit after bp"

let test_fault () =
  let _, e =
    make_engine (fun () ->
        Target.site 0x100;
        Fault.usage "bad instruction")
  in
  (match Engine.run e ~fuel:100 with
   | Engine.Faulted f -> Alcotest.(check bool) "usage" true (f.Fault.kind = Fault.Usage_fault)
   | _ -> Alcotest.fail "expected fault");
  Alcotest.(check int) "pc at vector" 0xDEAD (Engine.pc e);
  Alcotest.(check bool) "fault recorded" true (Engine.last_fault e <> None)

let test_uart_and_cycles_effects () =
  let board, e =
    make_engine (fun () ->
        Target.uart_tx "ping\n";
        Target.cycles 123;
        Target.site 0x100)
  in
  (match Engine.run e ~fuel:10 with Engine.Exited -> () | _ -> Alcotest.fail "exit");
  Alcotest.(check string) "uart" "ping\n" (Uart.drain (Board.uart board));
  (* 123 explicit + 2 for the site crossing. *)
  Alcotest.(check int64) "cycles" 125L (Clock.cycles (Board.clock board))

let test_read_cycles_effect () =
  let seen = ref (-1L) in
  let _, e =
    make_engine (fun () ->
        Target.cycles 50;
        seen := Target.current_cycles ();
        Target.site 0x100)
  in
  (match Engine.run e ~fuel:10 with Engine.Exited -> () | _ -> Alcotest.fail "exit");
  Alcotest.(check int64) "target sees clock" 50L !seen

let test_reset_rearms () =
  let count = ref 0 in
  let _, e =
    make_engine (fun () ->
        incr count;
        Target.site 0x100;
        Target.site 0x104)
  in
  (match Engine.run e ~fuel:1 with Engine.Fuel_exhausted -> () | _ -> Alcotest.fail "fuel");
  Engine.reset e;
  (match Engine.run e ~fuel:100 with Engine.Exited -> () | _ -> Alcotest.fail "exit");
  Alcotest.(check int) "entry ran twice" 2 !count

let test_reset_unwinds_parked () =
  let cleaned = ref false in
  let _, e =
    make_engine (fun () ->
        Fun.protect
          ~finally:(fun () -> cleaned := true)
          (fun () ->
            Target.site 0x100;
            Target.site 0x104))
  in
  (match Engine.run e ~fuel:1 with Engine.Fuel_exhausted -> () | _ -> Alcotest.fail "fuel");
  Alcotest.(check bool) "not yet" false !cleaned;
  Engine.reset e;
  Alcotest.(check bool) "finaliser ran on reset" true !cleaned

let test_step_one () =
  let _, e =
    make_engine (fun () ->
        Target.site 0x100;
        Target.site 0x104)
  in
  (match Engine.step_one e with
   | Engine.Fuel_exhausted -> Alcotest.(check int) "pc" 0x100 (Engine.pc e)
   | _ -> Alcotest.fail "step");
  match Engine.step_one e with
  | Engine.Fuel_exhausted -> Alcotest.(check int) "pc 2" 0x104 (Engine.pc e)
  | _ -> Alcotest.fail "step 2"

let test_infinite_loop_bounded () =
  let _, e =
    make_engine (fun () ->
        let rec spin () =
          Target.site 0x200;
          spin ()
        in
        spin ())
  in
  (* An infinite target loop must not hang the host: fuel bounds it. *)
  (match Engine.run e ~fuel:1000 with
   | Engine.Fuel_exhausted -> ()
   | _ -> Alcotest.fail "expected fuel stop");
  Alcotest.(check int) "stuck pc" 0x200 (Engine.pc e);
  match Engine.run e ~fuel:1000 with
  | Engine.Fuel_exhausted -> Alcotest.(check int) "still stuck" 0x200 (Engine.pc e)
  | _ -> Alcotest.fail "expected fuel stop again"

(* The fast/slow boundary: a site is crossed in place unless a debugger
   could see it. Each case pins pc, sites, board cycles and the stop. *)

let check_state e board ~pc ~sites ~cycles =
  Alcotest.(check int) "pc" pc (Engine.pc e);
  Alcotest.(check int64) "sites" sites (Engine.sites_executed e);
  Alcotest.(check int64) "cycles" cycles (Clock.cycles (Board.clock board))

let stop_name = function
  | Engine.Breakpoint_hit pc -> Printf.sprintf "breakpoint %#x" pc
  | Engine.Fuel_exhausted -> "fuel"
  | Engine.Faulted _ -> "fault"
  | Engine.Exited -> "exited"

let check_stop expected got = Alcotest.(check string) "stop" expected (stop_name got)

let straight_line n base () =
  for i = 0 to n - 1 do
    Target.site (base + (4 * i))
  done

let test_breakpoint_on_last_site () =
  let board, e = make_engine (straight_line 6 0x100) in
  Engine.set_breakpoint e 0x108;
  (* The third site is both the quantum's last and a breakpoint. *)
  check_stop "breakpoint 0x108" (Engine.run e ~fuel:3);
  check_state e board ~pc:0x108 ~sites:3L ~cycles:6L;
  check_stop "fuel" (Engine.run e ~fuel:2);
  check_state e board ~pc:0x110 ~sites:5L ~cycles:10L;
  check_stop "exited" (Engine.run e ~fuel:10);
  check_state e board ~pc:0x114 ~sites:6L ~cycles:12L

let test_step_one_plain_sites () =
  let board, e = make_engine (straight_line 5 0x100) in
  for i = 1 to 5 do
    check_stop "fuel" (Engine.step_one e);
    check_state e board ~pc:(0x100 + (4 * (i - 1))) ~sites:(Int64.of_int i)
      ~cycles:(Int64.of_int (2 * i))
  done;
  check_stop "exited" (Engine.step_one e);
  check_state e board ~pc:0x110 ~sites:5L ~cycles:10L

let swallowing_entry ~unwound () =
  (try
     Target.site 0x100;
     Target.site 0x104
   with _ -> ());
  (* Only reached while the reset unwinds: these crossings must suspend
     into the reset's drain and count nothing. *)
  incr unwound;
  Target.cycles 100;
  Target.site 0x200;
  Target.site 0x204

let test_reset_swallowed_slow_path () =
  let unwound = ref 0 in
  let board, e = make_engine (swallowing_entry ~unwound) in
  let flash_base = (Board.profile board).Board.flash_base in
  check_stop "fuel" (Engine.run e ~fuel:1);
  check_state e board ~pc:0x100 ~sites:1L ~cycles:2L;
  Engine.reset e;
  Alcotest.(check int) "handler ran" 1 !unwound;
  (* The handler's Cycles effect is still charged, its sites are not. *)
  check_state e board ~pc:flash_base ~sites:1L ~cycles:102L;
  check_stop "fuel" (Engine.run e ~fuel:2);
  check_state e board ~pc:0x104 ~sites:3L ~cycles:106L

let test_reset_inside_other_quantum () =
  (* Resetting a parked engine from inside another engine's quantum: the
     unwinding sites belong to neither quantum. *)
  let unwound = ref 0 in
  let board_a, a = make_engine (swallowing_entry ~unwound) in
  check_stop "fuel" (Engine.run a ~fuel:1);
  let board_b, b =
    make_engine (fun () ->
        Target.site 0x900;
        Engine.reset a;
        Target.site 0x904)
  in
  check_stop "exited" (Engine.run b ~fuel:10);
  Alcotest.(check int) "handler ran" 1 !unwound;
  check_state b board_b ~pc:0x904 ~sites:2L ~cycles:4L;
  check_state a board_a ~pc:(Board.profile board_a).Board.flash_base ~sites:1L ~cycles:102L

let test_trap_mid_quantum () =
  let board, e =
    make_engine (fun () ->
        Target.site 0x100;
        Target.cycles 10;
        Target.site 0x104;
        if Target.current_cycles () > 0L then Fault.usage "bad instruction";
        Target.site 0x108)
  in
  check_stop "fault" (Engine.run e ~fuel:100);
  check_state e board ~pc:0xDEAD ~sites:2L ~cycles:14L;
  check_stop "fault" (Engine.run e ~fuel:100);
  check_state e board ~pc:0xDEAD ~sites:2L ~cycles:14L

let test_run_silent_under_quantum () =
  let silent_clock = ref (-1L) and live_clock = ref (-1L) in
  let board, e =
    make_engine (fun () ->
        Target.site 0x100;
        Target.run_silent (fun () ->
            Target.site 0x300;
            Target.cycles 1000;
            silent_clock := Target.current_cycles ();
            Target.site 0x304);
        live_clock := Target.current_cycles ();
        Target.site 0x104)
  in
  check_stop "exited" (Engine.run e ~fuel:100);
  Alcotest.(check int64) "silent clock reads zero" 0L !silent_clock;
  Alcotest.(check int64) "live clock after run_silent" 2L !live_clock;
  check_state e board ~pc:0x104 ~sites:2L ~cycles:4L

let test_two_engines_alternate () =
  let spin base extra () =
    let rec go i =
      Target.site (base + (4 * (i mod 8)));
      if extra > 0 then Target.cycles extra;
      go (i + 1)
    in
    go 0
  in
  let board_a, a = make_engine (spin 0x100 0) in
  let board_b, b = make_engine (spin 0x800 3) in
  for round = 1 to 4 do
    check_stop "fuel" (Engine.run a ~fuel:10);
    check_stop "fuel" (Engine.run b ~fuel:5);
    let sa = 10 * round and sb = 5 * round in
    check_state a board_a ~pc:(0x100 + (4 * ((sa - 1) mod 8))) ~sites:(Int64.of_int sa)
      ~cycles:(Int64.of_int (2 * sa));
    (* Each of b's sites but the parked one has also charged its 3. *)
    check_state b board_b ~pc:(0x800 + (4 * ((sb - 1) mod 8))) ~sites:(Int64.of_int sb)
      ~cycles:(Int64.of_int ((2 * sb) + (3 * (sb - 1))))
  done

let test_escaping_exception_clears_quantum () =
  let board, e =
    make_engine (fun () ->
        Target.site 0x100;
        Target.site 0x104;
        raise Exit)
  in
  Alcotest.check_raises "escapes run" Exit (fun () -> ignore (Engine.run e ~fuel:100));
  check_state e board ~pc:0x104 ~sites:2L ~cycles:4L;
  (match Target.site 0x500 with
   | () -> Alcotest.fail "site crossed on a dead engine"
   | exception Effect.Unhandled _ -> ());
  check_state e board ~pc:0x104 ~sites:2L ~cycles:4L

(* [Target.spin] must be indistinguishable from the loop it replaces:
   same stops, pc, site count and clock, however the quanta fall. *)

let hand_spin addr ~cycles_per () =
  let rec go () =
    Target.site addr;
    Target.cycles cycles_per;
    go ()
  in
  go ()

let spin_entry addr ~cycles_per () =
  Target.site 0x100;
  Target.spin addr ~cycles_per

let test_spin_breakpoint () =
  let board, e = make_engine (spin_entry 0x200 ~cycles_per:5) in
  Engine.set_breakpoint e 0x200;
  (* Every turn stops on the breakpoint: no turn is skipped. *)
  check_stop "breakpoint 0x200" (Engine.run e ~fuel:100);
  check_state e board ~pc:0x200 ~sites:2L ~cycles:4L;
  check_stop "breakpoint 0x200" (Engine.run e ~fuel:100);
  check_state e board ~pc:0x200 ~sites:3L ~cycles:11L;
  Engine.remove_breakpoint e 0x200;
  check_stop "fuel" (Engine.run e ~fuel:10);
  check_state e board ~pc:0x200 ~sites:13L ~cycles:81L

let test_spin_reset_while_parked () =
  let boots = ref 0 and cleaned = ref 0 in
  let board, e =
    make_engine (fun () ->
        incr boots;
        Fun.protect ~finally:(fun () -> incr cleaned) (spin_entry 0x200 ~cycles_per:20))
  in
  check_stop "fuel" (Engine.run e ~fuel:1000);
  (* 1 + 998 turns crossed in bulk + the parked one; 999 charged turns. *)
  check_state e board ~pc:0x200 ~sites:1000L ~cycles:(Int64.of_int ((2 * 1000) + (20 * 998)));
  Engine.reset e;
  Alcotest.(check int) "spin unwound" 1 !cleaned;
  Alcotest.(check int) "pc at reset vector" (Board.profile board).Board.flash_base (Engine.pc e);
  check_stop "fuel" (Engine.run e ~fuel:3);
  Alcotest.(check int) "rebooted" 2 !boots;
  Alcotest.(check int) "pc back in spin" 0x200 (Engine.pc e);
  Alcotest.(check int64) "sites" 1003L (Engine.sites_executed e)

let test_spin_without_quantum () =
  (* No live quantum: every turn performs [Site]. The handler counts the
     turns and discontinues the spin at the fifth. *)
  let sites = ref [] and cycles = ref [] in
  let handler : (unit, unit) Effect.Deep.handler =
    {
      Effect.Deep.retc = (fun () -> Alcotest.fail "spin returned");
      exnc = (function Exit -> () | e -> raise e);
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Target.Site addr ->
            Some
              (fun (k : (b, unit) Effect.Deep.continuation) ->
                sites := addr :: !sites;
                if List.length !sites = 5 then Effect.Deep.discontinue k Exit
                else Effect.Deep.continue k ())
          | Target.Cycles n ->
            Some
              (fun k ->
                cycles := n :: !cycles;
                Effect.Deep.continue k ())
          | _ -> None);
    }
  in
  Effect.Deep.match_with (fun () -> Target.spin 0x300 ~cycles_per:7) () handler;
  Alcotest.(check (list int)) "one Site per turn" [ 0x300; 0x300; 0x300; 0x300; 0x300 ] !sites;
  Alcotest.(check (list int)) "one Cycles per finished turn" [ 7; 7; 7; 7 ] !cycles

let test_spin_fuel_one () =
  let board, e = make_engine (fun () -> Target.spin 0x400 ~cycles_per:3) in
  check_stop "fuel" (Engine.run e ~fuel:1);
  check_state e board ~pc:0x400 ~sites:1L ~cycles:2L;
  check_stop "fuel" (Engine.run e ~fuel:1);
  check_state e board ~pc:0x400 ~sites:2L ~cycles:7L;
  check_stop "fuel" (Engine.run e ~fuel:5);
  check_state e board ~pc:0x400 ~sites:7L ~cycles:32L

let spin_matches_loop =
  QCheck.Test.make ~name:"spin matches the hand-written loop" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 6) (int_range 1 2000)) (int_range 0 100))
    (fun (fuels, cycles_per) ->
      let board_s, s = make_engine (spin_entry 0x200 ~cycles_per) in
      let board_l, l =
        make_engine (fun () ->
            Target.site 0x100;
            hand_spin 0x200 ~cycles_per ())
      in
      let observe board e stop =
        (stop_name stop, Engine.pc e, Engine.sites_executed e, Clock.cycles (Board.clock board))
      in
      List.for_all
        (fun fuel ->
          let stop_s = Engine.run s ~fuel in
          let stop_l = Engine.run l ~fuel in
          observe board_s s stop_s = observe board_l l stop_l)
        fuels)

let suite =
  [
    Alcotest.test_case "run to exit" `Quick test_run_to_exit;
    Alcotest.test_case "fuel exhaustion" `Quick test_fuel_exhaustion;
    Alcotest.test_case "breakpoint" `Quick test_breakpoint;
    Alcotest.test_case "fault" `Quick test_fault;
    Alcotest.test_case "uart/cycles effects" `Quick test_uart_and_cycles_effects;
    Alcotest.test_case "read cycles effect" `Quick test_read_cycles_effect;
    Alcotest.test_case "reset rearms" `Quick test_reset_rearms;
    Alcotest.test_case "reset unwinds parked target" `Quick test_reset_unwinds_parked;
    Alcotest.test_case "single step" `Quick test_step_one;
    Alcotest.test_case "infinite loop bounded by fuel" `Quick test_infinite_loop_bounded;
    Alcotest.test_case "breakpoint on last site" `Quick test_breakpoint_on_last_site;
    Alcotest.test_case "step_one through plain sites" `Quick test_step_one_plain_sites;
    Alcotest.test_case "reset swallowed: slow path" `Quick test_reset_swallowed_slow_path;
    Alcotest.test_case "reset inside other quantum" `Quick test_reset_inside_other_quantum;
    Alcotest.test_case "trap mid-quantum" `Quick test_trap_mid_quantum;
    Alcotest.test_case "run_silent under quantum" `Quick test_run_silent_under_quantum;
    Alcotest.test_case "two engines alternate" `Quick test_two_engines_alternate;
    Alcotest.test_case "escaping exception clears quantum" `Quick
      test_escaping_exception_clears_quantum;
    Alcotest.test_case "spin: breakpoint on the spin address" `Quick test_spin_breakpoint;
    Alcotest.test_case "spin: reset while parked" `Quick test_spin_reset_while_parked;
    Alcotest.test_case "spin: no live quantum" `Quick test_spin_without_quantum;
    Alcotest.test_case "spin: starts with fuel 1" `Quick test_spin_fuel_one;
    QCheck_alcotest.to_alcotest spin_matches_loop;
  ]
