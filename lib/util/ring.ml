type 'a t = {
  slots : 'a option array;
  mutable head : int; (* next pop *)
  mutable len : int;
}

let create capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity";
  { slots = Array.make capacity None; head = 0; len = 0 }

let capacity t = Array.length t.slots

let push t x =
  let cap = capacity t in
  if t.len = cap then begin
    (* Overrun: drop the oldest element. *)
    t.slots.((t.head + t.len) mod cap) <- Some x;
    t.head <- (t.head + 1) mod cap
  end
  else begin
    t.slots.((t.head + t.len) mod cap) <- Some x;
    t.len <- t.len + 1
  end

let pop t =
  if t.len = 0 then None
  else begin
    let x = t.slots.(t.head) in
    t.slots.(t.head) <- None;
    t.head <- (t.head + 1) mod capacity t;
    t.len <- t.len - 1;
    x
  end

let clear t =
  Array.fill t.slots 0 (capacity t) None;
  t.head <- 0;
  t.len <- 0

let drain t =
  let rec go acc = match pop t with None -> List.rev acc | Some x -> go (x :: acc) in
  go []
