open Eof_rtos

let ( let* ) r f = match r with Ok v -> f v | Error code -> Api.status code

let to_status = function Ok () -> Api.ok_status | Error code -> Api.status code

let clamp_int v =
  if Int64.compare v (Int64.of_int max_int) > 0 then max_int
  else if Int64.compare v (Int64.of_int min_int) < 0 then min_int
  else Int64.to_int v

let worker_body (ctx : Osbuild.ctx) ~flavor (tcb : Sched.tcb) =
  match flavor mod 3 with
  | 0 ->
    (* Semaphore giver: feeds a semaphore, modelling a producer task
       unblocking consumers. *)
    (match Kobj.first_of_kind ctx.reg "sem" with
     | Some obj ->
       (match Sem.of_obj obj with
        | Some s -> ignore (Sem.give s : (unit, int64) result)
        | None -> ())
     | None -> ())
  | 1 ->
    (* Event poster: sets a rotating flag bit. *)
    (match Kobj.first_of_kind ctx.reg "event" with
     | Some obj ->
       (match Event.of_obj obj with
        | Some e -> Event.send e (1 lsl (tcb.Sched.quanta_run mod 8))
        | None -> ())
     | None -> ())
  | _ ->
    if tcb.Sched.quanta_run mod 64 = 1 then
      Klog.info ~os:ctx.os_name (Printf.sprintf "task %s alive" tcb.Sched.task_name)

let spawn_worker (ctx : Osbuild.ctx) ~name ~priority ~stack_size ~flavor =
  Sched.spawn ctx.sched ~name ~priority ~stack_size ~body:(worker_body ctx ~flavor)

let pump (ctx : Osbuild.ctx) n = Sched.run_ticks ctx.sched n

let irq_site_count = 12

let install_irq (ctx : Osbuild.ctx) ~instr ~prefix =
  let gpio = Eof_hw.Board.gpio ctx.board in
  let isr pin =
    (* Interrupt context: acknowledge, then wake whoever is waiting. *)
    Instr.edge instr 0;
    Instr.cmp_i instr 1 pin 0;
    match Kobj.first_of_kind ctx.reg "sem" with
    | Some obj ->
      (match Sem.of_obj obj with
       | Some s ->
         Instr.edge instr 2;
         ignore (Sem.give s : (unit, int64) result)
       | None -> ())
    | None ->
      (match Kobj.first_of_kind ctx.reg "event" with
       | Some obj ->
         (match Event.of_obj obj with
          | Some e ->
            Instr.edge instr 3;
            Event.send e (1 lsl (pin land 7))
          | None -> ())
       | None -> Instr.edge instr 4)
  in
  ctx.register_isr isr;
  ignore (Eof_hw.Gpio.configure_irq gpio ~pin:0 Eof_hw.Gpio.Rising : (unit, string) result);
  let enable args =
    let* pin = Api.get_int args 0 in
    let* edge = Api.get_int args 1 in
    Instr.cmp instr 5 pin 0L;
    let edge_v =
      match Int64.to_int (Int64.logand edge 3L) with
      | 1 -> Some Eof_hw.Gpio.Rising
      | 2 -> Some Eof_hw.Gpio.Falling
      | 3 -> Some Eof_hw.Gpio.Both
      | _ -> None
    in
    match edge_v with
    | None -> Api.status Kerr.einval
    | Some e ->
      (match Eof_hw.Gpio.configure_irq gpio ~pin:(clamp_int pin) e with
       | Ok () ->
         Instr.edge instr 6;
         Api.ok_status
       | Error _ -> Api.status Kerr.einval)
  in
  let disable args =
    let* pin = Api.get_int args 0 in
    Instr.edge instr 7;
    Eof_hw.Gpio.disable_irq gpio ~pin:(clamp_int pin);
    Api.ok_status
  in
  [
    {
      Api.name = prefix ^ "_irq_enable";
      args =
        [ ("pin", Api.A_int { min = 0L; max = 15L });
          ("edge", Api.A_flags [ ("rising", 1L); ("falling", 2L) ]) ];
      ret = `Status;
      doc = "Arm edge interrupts on a GPIO pin";
      weight = 1;
      handler = enable;
    };
    {
      Api.name = prefix ^ "_irq_disable";
      args = [ ("pin", Api.A_int { min = 0L; max = 15L }) ];
      ret = `Status;
      doc = "Disarm a GPIO pin";
      weight = 1;
      handler = disable;
    };
  ]
