open Eof_hw

type stop_reason =
  | Breakpoint_hit of int
  | Fuel_exhausted
  | Faulted of Fault.t
  | Exited

(* Internal outcome of resuming the target until its next suspension. *)
type outcome =
  | O_site of int * (unit, outcome) Effect.Deep.continuation
  | O_done
  | O_fault of Fault.t
  | O_aborted  (** unwound by reset *)

exception Engine_reset

type status =
  | Ready  (** entry armed, not yet started *)
  | Parked of (unit, outcome) Effect.Deep.continuation
  | Terminal of stop_reason

type t = {
  board : Board.t;
  fault_vector : int;
  mutable entry : unit -> unit;
  mutable pc : int;
  mutable status : status;
  breakpoints : (int, unit) Hashtbl.t;
  mutable last_fault : Fault.t option;
  mutable sites_executed : int64;
  site_cost : int;  (** cycles charged per crossed site *)
}

let create ~board ~fault_vector ~entry =
  {
    board;
    fault_vector;
    entry;
    pc = (Board.profile board).Board.flash_base;
    status = Ready;
    breakpoints = Hashtbl.create 16;
    last_fault = None;
    sites_executed = 0L;
    site_cost = 2;
  }

let board t = t.board

let pc t = t.pc

let running t = match t.status with Terminal _ -> false | Ready | Parked _ -> true

let last_fault t = t.last_fault

let set_breakpoint t addr = Hashtbl.replace t.breakpoints addr ()

let remove_breakpoint t addr = Hashtbl.remove t.breakpoints addr

let breakpoints t = Hashtbl.fold (fun k () acc -> k :: acc) t.breakpoints []

let handler t : (unit, outcome) Effect.Deep.handler =
  {
    Effect.Deep.retc = (fun () -> O_done);
    exnc =
      (fun e ->
        match e with
        | Fault.Trap f -> O_fault f
        | Engine_reset -> O_aborted
        | e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Target.Site addr ->
          Some
            (fun (k : (a, outcome) Effect.Deep.continuation) -> O_site (addr, k))
        | Target.Cycles n ->
          Clock.advance (Board.clock t.board) n;
          Some (fun k -> Effect.Deep.continue k ())
        | Target.Uart_tx s ->
          Uart.write_string (Board.uart t.board) s;
          Some (fun k -> Effect.Deep.continue k ())
        | Target.Read_cycles ->
          let c = Clock.cycles (Board.clock t.board) in
          Some (fun k -> Effect.Deep.continue k c)
        | _ -> None);
  }

let start t = Effect.Deep.match_with t.entry () (handler t)

let settle t outcome ~fuel_left =
  (* Process outcomes until we must stop; returns the stop reason. *)
  let rec go outcome fuel_left =
    match outcome with
    | O_done ->
      t.status <- Terminal Exited;
      Exited
    | O_aborted ->
      t.status <- Terminal Exited;
      Exited
    | O_fault f ->
      t.pc <- t.fault_vector;
      t.last_fault <- Some f;
      let reason = Faulted f in
      t.status <- Terminal reason;
      reason
    | O_site (addr, k) ->
      t.pc <- addr;
      t.sites_executed <- Int64.add t.sites_executed 1L;
      Clock.advance (Board.clock t.board) t.site_cost;
      t.status <- Parked k;
      if Hashtbl.mem t.breakpoints addr then Breakpoint_hit addr
      else if fuel_left <= 0 then Fuel_exhausted
      else go (Effect.Deep.continue k ()) (fuel_left - 1)
  in
  go outcome fuel_left

let run t ~fuel =
  if fuel <= 0 then invalid_arg "Engine.run: fuel must be positive";
  match t.status with
  | Terminal reason -> reason
  | Ready ->
    (* First quantum of this boot: the first crossed site also consumes
       fuel, hence fuel - 1 left after it. *)
    settle t (start t) ~fuel_left:(fuel - 1)
  | Parked k ->
    t.status <- Ready;
    (* placeholder; settle overwrites *)
    settle t (Effect.Deep.continue k ()) ~fuel_left:(fuel - 1)

let step_one t = run t ~fuel:1

let reset t =
  (match t.status with
   | Parked k ->
     (* Unwind the suspended target so its resources are released. *)
     (match Effect.Deep.discontinue k Engine_reset with
      | O_aborted | O_done | O_fault _ -> ()
      | O_site (_, k') ->
        (* A handler in target code swallowed the reset and kept running;
           force the chain down. This cannot recurse unboundedly because
           each discontinue consumes a continuation. *)
        let rec drain k =
          match Effect.Deep.discontinue k Engine_reset with
          | O_site (_, k') -> drain k'
          | O_aborted | O_done | O_fault _ -> ()
        in
        drain k')
   | Ready | Terminal _ -> ());
  t.status <- Ready;
  t.pc <- (Board.profile t.board).Board.flash_base;
  t.last_fault <- None

let sites_executed t = t.sites_executed
