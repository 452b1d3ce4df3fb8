type task_state = Ready | Suspended | Finished

type tcb = {
  id : int;
  task_name : string;
  stack_size : int;
  mutable priority : int;
  mutable state : task_state;
  mutable quanta_run : int;
  mutable last_run : int;
}

type Kobj.payload += Task of tcb

(* Bodies are kept outside the tcb so the record stays [private]-friendly
   and comparisons/printing of tcbs stay structural. *)
type t = {
  reg : Kobj.t;
  wheel : Swtimer.wheel;
  mutable tasks : (tcb * (tcb -> unit)) list;
  mutable tick_count : int;
}

let max_priority = 31

(* Fixed TCB table, as MCU kernels configure. *)
let max_tasks = 64

let create ~reg ~wheel = { reg; wheel; tasks = []; tick_count = 0 }

let live_tasks t =
  List.length (List.filter (fun (tcb, _) -> tcb.state <> Finished) t.tasks)

let spawn t ~name ~priority ~stack_size ~body =
  if priority < 0 || priority > max_priority then Error Kerr.einval
  else if stack_size < 128 || stack_size > 65536 then Error Kerr.einval
  else if live_tasks t >= max_tasks then Error Kerr.enospc
  else begin
    let tcb =
      {
        id = 0;
        task_name = name;
        stack_size;
        priority;
        state = Ready;
        quanta_run = 0;
        last_run = -1;
      }
    in
    let obj = Kobj.register t.reg ~kind:"task" ~name (Task tcb) in
    (* Rebuild with the real handle now that the registry assigned one. *)
    let tcb = { tcb with id = obj.Kobj.handle } in
    obj.Kobj.payload <- Task tcb;
    (* Reap finished TCBs so the table reflects live tasks only. *)
    t.tasks <- (tcb, body) :: List.filter (fun (x, _) -> x.state <> Finished) t.tasks;
    Ok obj
  end

let pick_next t =
  (* Highest priority first; within a priority, the least recently run. *)
  List.fold_left
    (fun best entry ->
      let tcb, _ = entry in
      if tcb.state <> Ready then best
      else
        match best with
        | None -> Some entry
        | Some (b, _) ->
          if
            tcb.priority < b.priority
            || (tcb.priority = b.priority && tcb.last_run < b.last_run)
          then Some entry
          else best)
    None t.tasks

let tick t =
  t.tick_count <- t.tick_count + 1;
  ignore (Swtimer.tick t.wheel : int);
  match pick_next t with
  | None -> ()
  | Some (tcb, body) ->
    tcb.last_run <- t.tick_count;
    tcb.quanta_run <- tcb.quanta_run + 1;
    body tcb

let run_ticks t n =
  for _ = 1 to n do
    tick t
  done

let suspend tcb = if tcb.state = Ready then tcb.state <- Suspended

let resume tcb = if tcb.state = Suspended then tcb.state <- Ready

let finish tcb = tcb.state <- Finished

let set_priority tcb priority =
  if priority < 0 || priority > max_priority then Error Kerr.einval
  else begin
    tcb.priority <- priority;
    Ok ()
  end

let ticks t = t.tick_count

let of_obj (obj : Kobj.obj) = match obj.Kobj.payload with Task tcb -> Some tcb | _ -> None
