open Eof_hw
open Eof_exec
open Eof_rtos
open Eof_os

let results_base build = Osbuild.mailbox_base build + (Osbuild.mailbox_size build / 2)

let max_program_bytes build = (Osbuild.mailbox_size build / 2) - 8

let progress_addr build = Osbuild.mailbox_base build + Osbuild.mailbox_size build - 4

let idle_progress = 0xFFFFFFFFl

let resolve_arg results = function
  | Wire.W_int v -> Api.V_int v
  | Wire.W_str s -> Api.V_str s
  | Wire.W_res k ->
    (* A failed producer leaves handle 0, which no registry ever hands
       out, so consumers fail with ENOENT rather than crashing the
       agent. *)
    let handle = if k >= 0 && k < Array.length results then results.(k) else 0 in
    Api.V_res handle

let execute_program build (inst : Osbuild.instance) program =
  let syms = Osbuild.syms build in
  let ram = Board.ram (Osbuild.board build) in
  let entries = inst.Osbuild.entries in
  let n = List.length program in
  let handles = Array.make n 0 in
  let statuses = Array.make n 0l in
  List.iteri
    (fun i (call : Wire.call) ->
      Memory.write_u32 ram (progress_addr build) (Int32.of_int i);
      Target.site syms.Osbuild.sym_call;
      Target.cycles 20;
      let status =
        if call.Wire.api_index >= Array.length entries then Kerr.einval
        else begin
          let entry = entries.(call.Wire.api_index) in
          let values = List.map (resolve_arg handles) call.Wire.args in
          let outcome = entry.Api.handler values in
          (match outcome.Api.created with
           | Some (_kind, handle) -> handles.(i) <- handle
           | None -> ());
          outcome.Api.status
        end
      in
      statuses.(i) <- Int64.to_int32 status;
      inst.Osbuild.tick ())
    program;
  Memory.write_u32 ram (progress_addr build) idle_progress;
  { Wire.Results.executed = n; statuses = Array.to_list statuses }

let entry build () =
  let board = Osbuild.board build in
  let syms = Osbuild.syms build in
  let endianness = (Board.profile board).Board.arch.Arch.endianness in
  let ram = Board.ram board in
  Target.site syms.Osbuild.sym_boot;
  if not (Board.boot_ok board) then begin
    (* Image integrity check failed: a real bootloader refuses to jump
       to a corrupted kernel. The PC pins at the boot symbol. *)
    Target.uart_tx "bootloader: image checksum mismatch, refusing to boot\n";
    Target.spin syms.Osbuild.sym_boot ~cycles_per:50
  end
  else begin
    let inst = Osbuild.fresh_instance build in
    let mailbox = Osbuild.mailbox_base build in
    let rec loop () =
      Target.site syms.Osbuild.sym_executor_main;
      Target.site syms.Osbuild.sym_read_prog;
      (match Wire.decode_from_ram ~mem:ram ~endianness ~base:mailbox with
       | Error _ ->
         (* Nothing (or garbage) in the mailbox: idle one tick. *)
         inst.Osbuild.tick ()
       | Ok program ->
         (* Consume the mailbox so a bare continue does not re-run the
            same program. *)
         Memory.write_u32 ram mailbox 0l;
         Target.site syms.Osbuild.sym_execute_one;
         let results = execute_program build inst program in
         Wire.Results.write ~mem:ram ~endianness ~base:(results_base build) results;
         Target.site syms.Osbuild.sym_loop_back);
      loop ()
    in
    loop ()
  end
