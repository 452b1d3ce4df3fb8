module Rng = Eof_util.Rng

type fault = Drop | Timeout | Truncate | Nak_storm | Garbage

let fault_name = function
  | Drop -> "drop"
  | Timeout -> "timeout"
  | Truncate -> "truncate"
  | Nak_storm -> "nak-storm"
  | Garbage -> "garbage"

type config = {
  rate : float;
  seed : int64;
  max_burst : int;
  kill_after : int option;
}

let default_config =
  { rate = 0.; seed = 0x1A3EC7L; max_burst = 6; kill_after = None }

type t = {
  cfg : config;
  rng : Rng.t;
  mutable exchanges : int;
  mutable burst_left : int;  (* further exchanges of the current burst *)
  mutable reset_armed : bool;  (* a reset happened; next fault is garbage *)
  mutable forced : fault option;
}

let create cfg =
  if cfg.rate < 0. || cfg.rate > 1. then
    invalid_arg "Inject.create: rate must be in [0,1]";
  if cfg.max_burst < 1 then invalid_arg "Inject.create: max_burst must be >= 1";
  {
    cfg;
    rng = Rng.create cfg.seed;
    exchanges = 0;
    burst_left = 0;
    reset_armed = false;
    forced = None;
  }

type decision = Pass | Fault of fault

(* The unforced fault mix. Garbage is reserved for the post-reset case. *)
let draw_kind t =
  if t.reset_armed then begin
    t.reset_armed <- false;
    Garbage
  end
  else
    match Rng.int t.rng 4 with
    | 0 -> Drop
    | 1 -> Timeout
    | 2 -> Truncate
    | _ -> Nak_storm

let decide t =
  t.exchanges <- t.exchanges + 1;
  match t.forced with
  | Some fault ->
    t.forced <- None;
    Fault fault
  | None ->
    let dead =
      match t.cfg.kill_after with Some n -> t.exchanges > n | None -> false
    in
    if dead then Fault Drop
    else if t.burst_left > 0 then begin
      t.burst_left <- t.burst_left - 1;
      Fault (draw_kind t)
    end
    else if t.cfg.rate > 0. && Rng.chance t.rng t.cfg.rate then begin
      (* A burst starts: this exchange faults, and up to [max_burst - 1]
         more follow it. *)
      t.burst_left <- Rng.int t.rng t.cfg.max_burst;
      Fault (draw_kind t)
    end
    else Pass

let mangle t fault response =
  match fault with
  | Drop | Timeout -> ""
  | Truncate ->
    (* Cut mid-frame: the decoder buffers a partial packet forever. *)
    String.sub response 0 (String.length response / 2)
  | Nak_storm -> String.make (1 + Rng.int t.rng 4) '-'
  | Garbage ->
    (* Junk with no frame start: the decoder sees only inter-frame
       noise and yields nothing. *)
    Bytes.unsafe_to_string (Rng.bytes t.rng (8 + Rng.int t.rng 24))
    |> String.map (fun c -> if c = '$' then '%' else c)

let note_reset t = if t.cfg.rate > 0. then t.reset_armed <- true

let force_next t fault = t.forced <- Some fault
