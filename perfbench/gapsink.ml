(* A wall-clock-stamping Obs sink.

   The layers already emit an event when they finish a piece of work
   (an exchange, a stop, a drain, a restore, a verdict). Stamping each
   event with the wall clock and charging the gap since the previous
   event to the event that closes it attributes the run's wall time to
   layers without touching their code. The gap an event opens (up to
   the next event) is recorded too: after a [reset] event that gap is
   the boot.

   The run is single-threaded and cooperative, so consecutive events
   are consecutive work whatever board or tenant emitted them; gaps are
   therefore taken across the whole bus, not per board. *)

module Obs = Eof_obs.Obs
module Event = Obs.Event

type acc = { mutable count : int; mutable closed_s : float; mutable opened_s : float }

type t = {
  accs : (string, acc) Hashtbl.t;
  mutable last : (float * acc) option;
  mutable log_bytes : int;
  mutable max_virtual_s : float;
  corpus_sizes : (string option * int option, int) Hashtbl.t;
  mutable payload_stamps : float list;  (** newest first *)
}

let create () =
  {
    accs = Hashtbl.create 32;
    last = None;
    log_bytes = 0;
    max_virtual_s = 0.;
    corpus_sizes = Hashtbl.create 8;
    payload_stamps = [];
  }

(* Stops and verdicts are split by kind: a quantum stop is the
   watchdog's work, a breakpoint stop is the agent's. *)
let key = function
  | Event.Stop { kind; _ } -> "stop." ^ kind
  | Event.Liveness_verdict { verdict; _ } -> "liveness." ^ verdict
  | ev -> Event.name ev

let acc t k =
  match Hashtbl.find_opt t.accs k with
  | Some a -> a
  | None ->
    let a = { count = 0; closed_s = 0.; opened_s = 0. } in
    Hashtbl.replace t.accs k a;
    a

let observe t ~now ~virtual_s ~board ~tenant ev =
  let a = acc t (key ev) in
  a.count <- a.count + 1;
  (match t.last with
   | Some (prev, prev_acc) ->
     let gap = now -. prev in
     a.closed_s <- a.closed_s +. gap;
     prev_acc.opened_s <- prev_acc.opened_s +. gap
   | None -> ());
  t.last <- Some (now, a);
  (* Board handles carry per-board elapsed clocks; the farm and hub
     handles carry the fleet-level virtual clock. *)
  if board = None then t.max_virtual_s <- Float.max t.max_virtual_s virtual_s;
  match ev with
  | Event.Drain { log_bytes; _ } -> t.log_bytes <- t.log_bytes + log_bytes
  | Event.Corpus_admit { size; _ } -> Hashtbl.replace t.corpus_sizes (tenant, board) size
  | Event.Payload _ -> t.payload_stamps <- now :: t.payload_stamps
  | _ -> ()

let sink t =
  Obs.sink (fun ~t:virtual_s ~board ~tenant ev ->
      observe t ~now:(Unix.gettimeofday ()) ~virtual_s ~board ~tenant ev)

let count t k = match Hashtbl.find_opt t.accs k with Some a -> a.count | None -> 0

let closed_s t k = match Hashtbl.find_opt t.accs k with Some a -> a.closed_s | None -> 0.

let opened_s t k = match Hashtbl.find_opt t.accs k with Some a -> a.opened_s | None -> 0.

(* Count and closed seconds over every key starting with [prefix]. *)
let total t ~prefix =
  Hashtbl.fold
    (fun k a (n, s) ->
      if String.starts_with ~prefix k then (n + a.count, s +. a.closed_s) else (n, s))
    t.accs (0, 0.)

let log_bytes t = t.log_bytes

let max_virtual_s t = t.max_virtual_s

(* Final corpus size: the last admission size seen per (tenant, board)
   corpus, summed. *)
let corpus_size t = Hashtbl.fold (fun _ size acc -> acc + size) t.corpus_sizes 0

(* Wall seconds between consecutive payload events: one sample per
   payload step after the first. *)
let payload_gaps t =
  let rec go acc = function
    | later :: (earlier :: _ as rest) -> go ((later -. earlier) :: acc) rest
    | _ -> acc
  in
  Array.of_list (go [] t.payload_stamps)
