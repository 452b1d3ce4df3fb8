open Eof_hw

type _ Effect.t +=
  | Site : int -> unit Effect.t
  | Cycles : int -> unit Effect.t
  | Uart_tx : string -> unit Effect.t
  | Read_cycles : int64 Effect.t

type quantum = {
  clock : Clock.t;
  breakpoints : (int, unit) Hashtbl.t;
  site_cost : int;
  mutable pc : int;
  mutable sites : int;
  mutable fuel : int;
}

(* The quantum whose engine handler is the innermost handler of the
   running code, if any. Module-level, not per domain: one engine
   quantum runs at a time. *)
let live : quantum option ref = ref None

let with_live q f =
  let saved = !live in
  live := q;
  Fun.protect ~finally:(fun () -> live := saved) f

let site addr =
  match !live with
  | Some q when q.fuel > 1 && not (Hashtbl.mem q.breakpoints addr) ->
    (* Not the quantum's last site and no breakpoint: nothing outside
       can observe this crossing, so do the engine's bookkeeping here
       instead of suspending. *)
    q.pc <- addr;
    q.sites <- q.sites + 1;
    Clock.advance q.clock q.site_cost;
    q.fuel <- q.fuel - 1
  | _ -> Effect.perform (Site addr)

let cycles n =
  match !live with Some q -> Clock.advance q.clock n | None -> Effect.perform (Cycles n)

let spin addr ~cycles_per =
  if cycles_per < 0 then invalid_arg "Target.spin: negative cycles_per";
  let rec turn () =
    (match !live with
     | Some q when q.fuel > 1 && not (Hashtbl.mem q.breakpoints addr) ->
       (* Every turn but the quantum's last would be crossed in place,
          each leaving the PC at [addr]: do them all in one step. *)
       let turns = q.fuel - 1 in
       q.pc <- addr;
       q.sites <- q.sites + turns;
       Clock.advance q.clock (turns * (q.site_cost + cycles_per));
       q.fuel <- 1
     | _ -> ());
    site addr;
    cycles cycles_per;
    turn ()
  in
  turn ()

let uart_tx s = Effect.perform (Uart_tx s)

let current_cycles () =
  match !live with Some q -> Clock.cycles q.clock | None -> Effect.perform Read_cycles

let run_silent f =
  let handler : ('a, 'a) Effect.Deep.handler =
    {
      Effect.Deep.retc = (fun v -> v);
      exnc = raise;
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Site _ -> Some (fun (k : (b, _) Effect.Deep.continuation) -> Effect.Deep.continue k ())
          | Cycles _ -> Some (fun k -> Effect.Deep.continue k ())
          | Uart_tx _ -> Some (fun k -> Effect.Deep.continue k ())
          | Read_cycles -> Some (fun k -> Effect.Deep.continue k 0L)
          | _ -> None);
    }
  in
  with_live None (fun () -> Effect.Deep.match_with f () handler)
