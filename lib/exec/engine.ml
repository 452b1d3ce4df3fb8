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
  mutable status : status;
  mutable last_fault : Fault.t option;
  q : Target.quantum;  (** pc, site count, fuel: shared with in-place crossings *)
}

let create ~board ~fault_vector ~entry =
  {
    board;
    fault_vector;
    entry;
    status = Ready;
    last_fault = None;
    q =
      {
        Target.clock = Board.clock board;
        breakpoints = Hashtbl.create 16;
        site_cost = 2;
        pc = (Board.profile board).Board.flash_base;
        sites = 0;
        fuel = 0;
      };
  }

let board t = t.board

let pc t = t.q.pc

let running t = match t.status with Terminal _ -> false | Ready | Parked _ -> true

let last_fault t = t.last_fault

let set_breakpoint t addr = Hashtbl.replace t.q.breakpoints addr ()

let remove_breakpoint t addr = Hashtbl.remove t.q.breakpoints addr

let breakpoints t = Hashtbl.fold (fun k () acc -> k :: acc) t.q.breakpoints []

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

let settle t outcome =
  (* Process outcomes until we must stop; returns the stop reason. The
     fuel left is the engine's, shared with {!Target.site}'s in-place
     crossings. *)
  let q = t.q in
  let rec go outcome =
    match outcome with
    | O_done ->
      t.status <- Terminal Exited;
      Exited
    | O_aborted ->
      t.status <- Terminal Exited;
      Exited
    | O_fault f ->
      q.pc <- t.fault_vector;
      t.last_fault <- Some f;
      let reason = Faulted f in
      t.status <- Terminal reason;
      reason
    | O_site (addr, k) ->
      q.pc <- addr;
      q.sites <- q.sites + 1;
      Clock.advance q.clock q.site_cost;
      q.fuel <- q.fuel - 1;
      t.status <- Parked k;
      if Hashtbl.mem q.breakpoints addr then Breakpoint_hit addr
      else if q.fuel <= 0 then Fuel_exhausted
      else go (Effect.Deep.continue k ())
  in
  go outcome

(* One quantum of up to [fuel] sites, the first included; [resume]
   starts or continues the target. *)
let quantum t ~fuel resume =
  t.q.fuel <- fuel;
  Target.with_live (Some t.q) (fun () -> settle t (resume ()))

let run t ~fuel =
  if fuel <= 0 then invalid_arg "Engine.run: fuel must be positive";
  match t.status with
  | Terminal reason -> reason
  | Ready -> quantum t ~fuel (fun () -> start t)
  | Parked k ->
    t.status <- Ready;
    (* placeholder; settle overwrites *)
    quantum t ~fuel (fun () -> Effect.Deep.continue k ())

let step_one t = run t ~fuel:1

let reset t =
  (match t.status with
   | Parked k ->
     (* Unwind the suspended target so its resources are released. A
        handler in target code may swallow the reset and keep running:
        with no quantum live, each site it crosses suspends here and is
        unwound in turn. Each discontinue consumes a continuation. *)
     let rec drain = function
       | O_site (_, k) -> drain (Effect.Deep.discontinue k Engine_reset)
       | O_aborted | O_done | O_fault _ -> ()
     in
     Target.with_live None (fun () -> drain (Effect.Deep.discontinue k Engine_reset))
   | Ready | Terminal _ -> ());
  t.status <- Ready;
  t.q.pc <- (Board.profile t.board).Board.flash_base;
  t.last_fault <- None

let sites_executed t = Int64.of_int t.q.sites
