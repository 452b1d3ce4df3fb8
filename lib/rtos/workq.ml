type item = { run : unit -> unit; mutable pending : bool }

type t = {
  drain_per_tick : int;
  queue : item Queue.t;
}

let create ~drain_per_tick =
  if drain_per_tick <= 0 then invalid_arg "Workq.create: drain_per_tick";
  { drain_per_tick; queue = Queue.create () }

let make_item run = { run; pending = false }

let submit t item =
  if item.pending then false
  else begin
    item.pending <- true;
    Queue.push item t.queue;
    true
  end

let pending t = Queue.length t.queue

let drain_tick t =
  let ran = ref 0 in
  while !ran < t.drain_per_tick && not (Queue.is_empty t.queue) do
    let item = Queue.pop t.queue in
    item.pending <- false;
    incr ran;
    item.run ()
  done;
  !ran
