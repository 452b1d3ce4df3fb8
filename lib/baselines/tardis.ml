open Eof_hw
open Eof_os
module Rng = Eof_util.Rng
module Agent = Eof_agent.Agent
module Campaign = Eof_core.Campaign
module Corpus = Eof_core.Corpus
module Crash = Eof_core.Crash
module Gen = Eof_core.Gen
module Prog = Eof_core.Prog

(* The hand-written core-kernel specs Tardis ships lack the
   driver/middleware configuration surfaces (staged device sequences,
   GPIO control) and the pseudo-syscalls the paper derives with LLM
   assistance — which is exactly the spec-breadth gap the evaluation
   attributes EOF's advantage to. *)
let driver_surfaces prefixes =
  List.concat_map (fun p -> [ p ^ "_open"; p ^ "_step" ]) prefixes

let unsupported_calls = function
  | "Zephyr" ->
    [ "sys_heap_stress"; "k_msgq_purge"; "syz_json_deep_encode";
      "gpio_irq_enable"; "gpio_irq_disable" ]
    @ driver_surfaces [ "zpipe"; "zspi"; "zadc" ]
  | "RT-Thread" ->
    [
      "rt_service_poll";
      "rt_mp_create"; "rt_mp_alloc"; "rt_mp_free";
      "rt_smem_alloc"; "rt_smem_setname"; "rt_smem_free";
      "rt_serial_ctrl"; "rt_device_write";
      "syz_create_bind_socket"; "sal_listen"; "sal_sendto"; "sal_closesocket";
      "rt_event_delete"; "rt_pin_irq_enable"; "rt_pin_irq_disable";
    ]
    @ driver_surfaces [ "rt_devcfg"; "rt_can" ]
  | "NuttX" ->
    [ "setenv"; "nxmq_timedsend"; "sem_destroy"; "clock_getres";
      "nx_gpio_irq_enable"; "nx_gpio_irq_disable" ]
    @ driver_surfaces [ "nx_ioctl"; "nx_i2c" ]
  | "FreeRTOS" ->
    [ "load_partitions"; "syz_http_get"; "syz_http_post_json"; "http_request";
      "gpio_isr_irq_enable"; "gpio_isr_irq_disable" ]
    @ driver_surfaces [ "wifi_prov"; "ble_gatt"; "ota_update" ]
  | "PoKOS" -> []
  | _ -> []

let build_for spec = Osbuild.make ~board_profile:Profiles.qemu_mps2 spec

let run ~seed ~iterations build =
  let table = Osbuild.api_signatures build in
  match Eof_spec.Synth.validated_of_api table with
  | Error e -> Error (Eof_util.Eof_error.config e)
  | Ok spec ->
    let unsupported = unsupported_calls (Osbuild.os_name build) in
    let spec =
      Campaign.filter_spec spec
        (List.filter_map
           (fun (c : Eof_spec.Ast.call) ->
             if List.mem c.Eof_spec.Ast.name unsupported then None
             else Some c.Eof_spec.Ast.name)
           spec.Eof_spec.Ast.calls)
    in
    let rng = Rng.create seed in
    (* The corpus splits its stream off first, then the generator: the
       order a seed's golden outcome depends on. *)
    let corpus = Corpus.create ~rng:(Rng.split rng) () in
    let gen = Gen.create ~rng:(Rng.split rng) ~spec ~table () in
    let next () =
      if (not (Corpus.is_empty corpus)) && Rng.chance rng 0.7 then
        match Corpus.pick corpus with
        | Some p -> Gen.mutate gen p ~max_len:12
        | None -> Gen.generate gen ~max_len:12
      else Gen.generate gen ~max_len:12
    in
    (* No exception or log monitor: a dead VM is attributed to the last
       call the agent reported starting. *)
    let death stop input =
      let prog = Option.value input ~default:[] in
      let idx =
        Int32.to_int
          (Memory.read_u32 (Board.ram (Osbuild.board build)) (Agent.progress_addr build))
      in
      let operation =
        if idx < 0 || idx >= List.length prog then "unknown"
        else (List.nth prog idx).Prog.spec.Eof_spec.Ast.name
      in
      let kind, message =
        match stop with
        | Emu.Dead -> (Crash.Kernel_panic, "VM stopped responding")
        | Emu.Stuck -> (Crash.Hang, "VM timeout")
      in
      { Emu.kind; operation; message; program = Prog.to_string prog }
    in
    Ok
      (Emu.run ~iterations build
         {
           Emu.next;
           program = Prog.to_wire;
           death;
           (* Coverage guides Tardis; crash signals do not (it has no
              monitor to tell it which inputs crashed usefully). *)
           admit =
             (fun prog ~new_edges ->
               ignore (Corpus.add corpus ~prog ~new_edges ~crashed:false : bool));
           corpus_size = (fun () -> Corpus.size corpus);
           final_corpus = (fun () -> Corpus.progs corpus);
         })
