open Eof_hw
open Eof_os
open Eof_agent
open Eof_debug

(* Wire-format unit tests. *)

let sample_program =
  [
    { Wire.api_index = 7; args = [ Wire.W_int 42L; Wire.W_str "hello\x00\xFF" ] };
    { Wire.api_index = 0; args = [] };
    { Wire.api_index = 3; args = [ Wire.W_res 0; Wire.W_int (-1L) ] };
  ]

let test_wire_roundtrip_le () =
  match Wire.encode ~endianness:Arch.Little sample_program with
  | Error e -> Alcotest.fail e
  | Ok s ->
    (match Wire.decode ~endianness:Arch.Little s with
     | Ok p -> Alcotest.(check bool) "roundtrip" true (p = sample_program)
     | Error e -> Alcotest.fail e)

let test_wire_roundtrip_be () =
  match Wire.encode ~endianness:Arch.Big sample_program with
  | Error e -> Alcotest.fail e
  | Ok s ->
    (match Wire.decode ~endianness:Arch.Big s with
     | Ok p -> Alcotest.(check bool) "roundtrip" true (p = sample_program)
     | Error e -> Alcotest.fail e);
    (* Big-endian bytes must not decode as little-endian for multi-call
       programs (the count field flips). *)
    (match Wire.decode ~endianness:Arch.Little s with
     | Ok p -> Alcotest.(check bool) "endianness matters" true (p <> sample_program)
     | Error _ -> ())

let test_wire_rejects () =
  (match Wire.encode ~endianness:Arch.Little [ { Wire.api_index = 0; args = [ Wire.W_res 0 ] } ] with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "self-reference accepted");
  (match Wire.decode ~endianness:Arch.Little "\x01\x00" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "truncated accepted");
  let too_many = List.init 65 (fun _ -> { Wire.api_index = 0; args = [] }) in
  match Wire.encode ~endianness:Arch.Little too_many with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "65 calls accepted"

let test_wire_ram_roundtrip () =
  let mem = Memory.create ~base:0x2000_0000 ~size:8192 ~endianness:Arch.Little in
  (match
     Wire.write_to_ram ~mem ~endianness:Arch.Little ~base:0x2000_0000 ~limit:4096
       sample_program
   with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  match Wire.decode_from_ram ~mem ~endianness:Arch.Little ~base:0x2000_0000 with
  | Ok p -> Alcotest.(check bool) "via ram" true (p = sample_program)
  | Error e -> Alcotest.fail e

let test_results_roundtrip () =
  let mem = Memory.create ~base:0 ~size:256 ~endianness:Arch.Little in
  let r = { Wire.Results.executed = 3; statuses = [ 0l; -22l; 5l ] } in
  Wire.Results.write ~mem ~endianness:Arch.Little ~base:0 r;
  let raw = Bytes.to_string (Memory.read_bytes mem ~addr:0 ~len:(Wire.Results.byte_size 3)) in
  match Wire.Results.read ~raw ~endianness:Arch.Little with
  | Ok r' -> Alcotest.(check bool) "results" true (r = r')
  | Error e -> Alcotest.fail e

(* End-to-end machine tests: drive the Zephyr build over the debug link
   exactly as the fuzzer does. *)

let make_zephyr () =
  let build = Osbuild.make ~board_profile:Profiles.stm32f4_disco Zephyr.spec in
  match Machine.create build with
  | Ok m -> (build, m)
  | Error e -> Alcotest.fail (Eof_util.Eof_error.to_string e)

let ok_or_fail = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Session.error_to_string e)

let continue_to session expect_pc =
  match ok_or_fail (Session.continue_ session) with
  | Session.Stopped_breakpoint pc when pc = expect_pc -> ()
  | Session.Stopped_breakpoint pc -> Alcotest.fail (Printf.sprintf "stopped at 0x%x" pc)
  | Session.Stopped_quantum pc -> Alcotest.fail (Printf.sprintf "quantum at 0x%x" pc)
  | Session.Stopped_fault pc -> Alcotest.fail (Printf.sprintf "fault at 0x%x" pc)
  | Session.Target_exited -> Alcotest.fail "target exited"

let api_index table name =
  let rec go i = function
    | [] -> Alcotest.fail ("no api " ^ name)
    | (e : Eof_rtos.Api.entry) :: _ when e.Eof_rtos.Api.name = name -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 table.Eof_rtos.Api.entries


let send_program build machine program =
  let session = Machine.session machine in
  let syms = Osbuild.syms build in
  let endianness = (Board.profile (Osbuild.board build)).Board.arch.Arch.endianness in
  ok_or_fail (Session.set_breakpoint session syms.Osbuild.sym_executor_main);
  ok_or_fail (Session.set_breakpoint session syms.Osbuild.sym_loop_back);
  continue_to session syms.Osbuild.sym_executor_main;
  let payload =
    match Wire.encode ~endianness program with Ok s -> s | Error e -> Alcotest.fail e
  in
  let mailbox = Osbuild.mailbox_base build in
  let header = Bytes.create 8 in
  (match endianness with
   | Arch.Little ->
     Bytes.set_int32_le header 0 Wire.magic;
     Bytes.set_int32_le header 4 (Int32.of_int (String.length payload))
   | Arch.Big ->
     Bytes.set_int32_be header 0 Wire.magic;
     Bytes.set_int32_be header 4 (Int32.of_int (String.length payload)));
  ok_or_fail (Session.write_mem session ~addr:mailbox (Bytes.to_string header ^ payload));
  continue_to session syms.Osbuild.sym_loop_back;
  (* Read back the result summary. *)
  let raw =
    ok_or_fail
      (Session.read_mem session ~addr:(Agent.results_base build)
         ~len:(Wire.Results.byte_size (List.length program)))
  in
  match Wire.Results.read ~raw ~endianness with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_end_to_end_simple_program () =
  let build, machine = make_zephyr () in
  let table = Osbuild.api_signatures build in
  let prog =
    [
      { Wire.api_index = api_index table "k_sem_init"; args = [ Wire.W_int 1L; Wire.W_int 5L ] };
      { Wire.api_index = api_index table "k_sem_take"; args = [ Wire.W_res 0 ] };
      { Wire.api_index = api_index table "k_sem_take"; args = [ Wire.W_res 0 ] };
    ]
  in
  let results = send_program build machine prog in
  Alcotest.(check int) "executed" 3 results.Wire.Results.executed;
  (match results.Wire.Results.statuses with
   | [ a; b; c ] ->
     Alcotest.(check int32) "create ok" 0l a;
     Alcotest.(check int32) "first take ok" 0l b;
     Alcotest.(check int32) "second take EAGAIN" (-11l) c
   | _ -> Alcotest.fail "wrong status count");
  let log = ok_or_fail (Session.drain_uart (Machine.session machine)) in
  Alcotest.(check bool) "boot banner seen" true (contains ~needle:"Booting Zephyr" log)

let test_end_to_end_coverage_collected () =
  let build, machine = make_zephyr () in
  let session = Machine.session machine in
  let table = Osbuild.api_signatures build in
  let prog =
    [
      { Wire.api_index = api_index table "k_msgq_create";
        args = [ Wire.W_int 4L; Wire.W_int 16L ] };
      { Wire.api_index = api_index table "k_msgq_put";
        args = [ Wire.W_res 0; Wire.W_str "payload!" ] };
      { Wire.api_index = api_index table "z_impl_k_msgq_get"; args = [ Wire.W_res 0 ] };
    ]
  in
  let _ = send_program build machine prog in
  let layout = Osbuild.covbuf_layout build in
  let widx =
    ok_or_fail (Session.read_u32 session ~addr:(Eof_cov.Sancov.Layout.write_index_addr layout))
  in
  Alcotest.(check bool) "coverage records written" true (Int32.to_int widx > 0);
  let raw =
    ok_or_fail
      (Session.read_mem session
         ~addr:(Eof_cov.Sancov.Layout.records_addr layout)
         ~len:(4 * Int32.to_int widx))
  in
  let edges = Array.make (Int32.to_int widx) 0 in
  let n =
    Eof_cov.Sancov.decode_records_into ~endianness:Arch.Little ~count:(Int32.to_int widx)
      raw edges
  in
  Alcotest.(check int) "every record decoded" (Int32.to_int widx) n;
  let edges = Array.to_list edges in
  let cap = Osbuild.edge_capacity build in
  Alcotest.(check bool) "edges in range" true (List.for_all (fun e -> e >= 0 && e < cap) edges);
  Alcotest.(check bool) "distinct edges" true (List.length (List.sort_uniq compare edges) > 3)

let test_end_to_end_crash_flow () =
  let build, machine = make_zephyr () in
  let session = Machine.session machine in
  let syms = Osbuild.syms build in
  let table = Osbuild.api_signatures build in
  ok_or_fail (Session.set_breakpoint session syms.Osbuild.sym_executor_main);
  ok_or_fail (Session.set_breakpoint session syms.Osbuild.sym_loop_back);
  ok_or_fail (Session.set_breakpoint session syms.Osbuild.sym_handle_exception);
  continue_to session syms.Osbuild.sym_executor_main;
  let endianness = (Board.profile (Osbuild.board build)).Board.arch.Arch.endianness in
  let prog =
    [ { Wire.api_index = api_index table "syz_json_deep_encode"; args = [ Wire.W_int 12L ] } ]
  in
  let payload = match Wire.encode ~endianness prog with Ok s -> s | Error e -> Alcotest.fail e in
  let header = Bytes.create 8 in
  Bytes.set_int32_le header 0 Wire.magic;
  Bytes.set_int32_le header 4 (Int32.of_int (String.length payload));
  ok_or_fail
    (Session.write_mem session ~addr:(Osbuild.mailbox_base build)
       (Bytes.to_string header ^ payload));
  (* First stop: the exception-monitor breakpoint at the panic handler. *)
  (match ok_or_fail (Session.continue_ session) with
   | Session.Stopped_breakpoint pc ->
     Alcotest.(check int) "panic handler bp" syms.Osbuild.sym_handle_exception pc
   | _ -> Alcotest.fail "expected panic-handler stop");
  let log = ok_or_fail (Session.drain_uart session) in
  Alcotest.(check bool) "panic banner" true (contains ~needle:"KERNEL PANIC" log);
  Alcotest.(check bool) "backtrace" true (contains ~needle:"json_obj_encode" log);
  (* Continuing past the handler raises the hardware fault. *)
  (match ok_or_fail (Session.continue_ session) with
   | Session.Stopped_fault _ -> ()
   | _ -> Alcotest.fail "expected fault stop");
  let fault = ok_or_fail (Session.last_fault session) in
  Alcotest.(check bool) "fault text" true (contains ~needle:"stack overflow" fault);
  (* Reset and verify the target boots again. *)
  ok_or_fail (Session.reset_target session);
  continue_to session syms.Osbuild.sym_executor_main

let test_end_to_end_boot_failure_and_reflash () =
  let build, machine = make_zephyr () in
  let session = Machine.session machine in
  let syms = Osbuild.syms build in
  let board = Osbuild.board build in
  (* Sabotage the kernel partition in flash (as a buggy test case that
     scribbles flash would), then reset. *)
  let kernel = Option.get (Partition.find (Board.partition_table board) "kernel") in
  Flash.corrupt (Board.flash board)
    ~addr:(Flash.base (Board.flash board) + kernel.Partition.offset + 64)
    "CORRUPTED";
  ok_or_fail (Session.reset_target session);
  Alcotest.(check bool) "boot check fails" false (Board.boot_ok board);
  (* The PC pins at the boot symbol: the stall watchdog's signature. *)
  (match ok_or_fail (Session.continue_ session) with
   | Session.Stopped_quantum pc -> Alcotest.(check int) "stuck at boot" syms.Osbuild.sym_boot pc
   | _ -> Alcotest.fail "expected quantum stop at boot");
  let pc1 = ok_or_fail (Session.read_pc session) in
  (match ok_or_fail (Session.continue_ session) with
   | Session.Stopped_quantum pc2 -> Alcotest.(check int) "pc did not advance" pc1 pc2
   | _ -> Alcotest.fail "expected second quantum stop");
  (* Restoration: reflash every partition over the debug link. *)
  let image = Osbuild.image build in
  let flash_base = Flash.base (Board.flash board) in
  List.iter
    (fun (e : Partition.entry) ->
      let blob =
        match List.assoc_opt e.Partition.name image.Image.blobs with
        | Some b -> b
        | None -> Alcotest.fail "missing blob"
      in
      ok_or_fail (Session.flash_erase session ~addr:(flash_base + e.Partition.offset) ~len:e.Partition.size);
      ok_or_fail (Session.flash_write session ~addr:(flash_base + e.Partition.offset) blob);
      ok_or_fail (Session.flash_done session))
    image.Image.table;
  ok_or_fail (Session.reset_target session);
  Alcotest.(check bool) "boots after reflash" true (Board.boot_ok board);
  ok_or_fail (Session.set_breakpoint session syms.Osbuild.sym_executor_main);
  continue_to session syms.Osbuild.sym_executor_main

let test_agent_ignores_garbage_mailbox () =
  let build, machine = make_zephyr () in
  let session = Machine.session machine in
  let syms = Osbuild.syms build in
  ok_or_fail (Session.set_breakpoint session syms.Osbuild.sym_executor_main);
  continue_to session syms.Osbuild.sym_executor_main;
  ok_or_fail (Session.write_mem session ~addr:(Osbuild.mailbox_base build) "garbagegarbage");
  (* No valid magic: the agent must come back around without executing. *)
  continue_to session syms.Osbuild.sym_executor_main

let prop_wire_roundtrip =
  let arg_gen =
    QCheck.Gen.(
      frequency
        [
          (3, map (fun v -> Wire.W_int v) int64);
          (2, map (fun s -> Wire.W_str s) (string_size (0 -- 32)));
        ])
  in
  let program_gen =
    QCheck.Gen.(
      list_size (0 -- 10)
        (map2
           (fun idx args -> { Wire.api_index = idx land 0xFFFF; args })
           nat (list_size (0 -- 5) arg_gen)))
  in
  QCheck.Test.make ~name:"wire roundtrip (arbitrary programs)" ~count:200
    (QCheck.make program_gen) (fun prog ->
      match Wire.encode ~endianness:Arch.Big prog with
      | Error _ -> QCheck.assume_fail ()
      | Ok s ->
        (match Wire.decode ~endianness:Arch.Big s with
         | Ok p -> p = prog
         | Error _ -> false))

let suite =
  [
    Alcotest.test_case "wire roundtrip LE" `Quick test_wire_roundtrip_le;
    Alcotest.test_case "wire roundtrip BE" `Quick test_wire_roundtrip_be;
    Alcotest.test_case "wire rejects" `Quick test_wire_rejects;
    Alcotest.test_case "wire via RAM" `Quick test_wire_ram_roundtrip;
    Alcotest.test_case "results roundtrip" `Quick test_results_roundtrip;
    Alcotest.test_case "e2e simple program" `Quick test_end_to_end_simple_program;
    Alcotest.test_case "e2e coverage collected" `Quick test_end_to_end_coverage_collected;
    Alcotest.test_case "e2e crash flow" `Quick test_end_to_end_crash_flow;
    Alcotest.test_case "e2e boot failure + reflash" `Quick test_end_to_end_boot_failure_and_reflash;
    Alcotest.test_case "agent ignores garbage mailbox" `Quick test_agent_ignores_garbage_mailbox;
    QCheck_alcotest.to_alcotest prop_wire_roundtrip;
  ]
