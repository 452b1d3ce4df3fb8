type kind = Oneshot | Periodic

type timer = {
  kind : kind;
  period : int;
  callback : unit -> unit;
  mutable remaining : int;
  mutable active : bool;
  mutable fires : int;
}

type Kobj.payload += Timer of timer

type wheel = { mutable timers : timer list }

(* Fixed timer table, as RTOS configs declare (configTIMER_QUEUE_LENGTH
   and friends). *)
let max_timers = 64

let create_wheel () = { timers = [] }

let create ~reg ~wheel ~name ~kind ~period ~callback =
  if period <= 0 then Error Kerr.einval
  else if List.length wheel.timers >= max_timers then Error Kerr.enospc
  else begin
    let timer = { kind; period; callback; remaining = period; active = false; fires = 0 } in
    wheel.timers <- timer :: wheel.timers;
    Ok (Kobj.register reg ~kind:"timer" ~name (Timer timer))
  end

let start timer =
  timer.remaining <- timer.period;
  timer.active <- true

let stop timer = timer.active <- false

let tick wheel =
  let fired = ref 0 in
  List.iter
    (fun timer ->
      if timer.active then begin
        timer.remaining <- timer.remaining - 1;
        if timer.remaining <= 0 then begin
          incr fired;
          timer.fires <- timer.fires + 1;
          (match timer.kind with
           | Oneshot -> timer.active <- false
           | Periodic -> timer.remaining <- timer.period);
          timer.callback ()
        end
      end)
    wheel.timers;
  !fired

let of_obj (obj : Kobj.obj) = match obj.Kobj.payload with Timer t -> Some t | _ -> None
