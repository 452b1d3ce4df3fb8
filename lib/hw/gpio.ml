type edge = Rising | Falling | Both

type t = {
  levels : bool array;
  armed : edge option array;
  pending : bool array;
}

let pin_count = 16

let create () =
  {
    levels = Array.make pin_count false;
    armed = Array.make pin_count None;
    pending = Array.make pin_count false;
  }

let check_pin pin =
  if pin < 0 || pin >= pin_count then Error (Printf.sprintf "no GPIO pin %d" pin) else Ok ()

let configure_irq t ~pin edge =
  match check_pin pin with
  | Error _ as e -> e
  | Ok () ->
    t.armed.(pin) <- Some edge;
    Ok ()

let disable_irq t ~pin = if pin >= 0 && pin < pin_count then t.armed.(pin) <- None

let set_level t ~pin ~level =
  match check_pin pin with
  | Error _ as e -> e
  | Ok () ->
    let prev = t.levels.(pin) in
    t.levels.(pin) <- level;
    (match (t.armed.(pin), prev, level) with
     | Some (Rising | Both), false, true -> t.pending.(pin) <- true
     | Some (Falling | Both), true, false -> t.pending.(pin) <- true
     | _ -> ());
    Ok ()

let drain_pending t =
  let pins = ref [] in
  for pin = pin_count - 1 downto 0 do
    if t.pending.(pin) then begin
      t.pending.(pin) <- false;
      pins := pin :: !pins
    end
  done;
  !pins

let reset t =
  Array.fill t.levels 0 pin_count false;
  Array.fill t.armed 0 pin_count None;
  Array.fill t.pending 0 pin_count false
