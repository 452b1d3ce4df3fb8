(* Seed storage plus the scheduler that decides which seed mutates
   next. Two schedules share the storage: [Uniform] is the original
   score-weighted lottery (one pick, one mutation), [Energy] is an
   AFLFast-style power schedule — a picked seed receives an energy
   budget (mutations before the next pick) that grows exponentially
   for seeds on the rare-edge frontier of their target. A target is a
   personality x API-table shape; seeds carry the target they were
   admitted under so hub-side merges across personalities keep each
   seed's schedule position. *)

type schedule = Uniform | Energy

let schedule_name = function Uniform -> "uniform" | Energy -> "energy"

let schedule_of_name s =
  match String.lowercase_ascii s with
  | "uniform" -> Ok Uniform
  | "energy" -> Ok Energy
  | other ->
    Error (Printf.sprintf "unknown schedule %S (expected uniform|energy)" other)

(* A target names one personality x API-table shape: the frontier maps
   are keyed on it, and a seed's energy is judged against the frontier
   of its own target. The digest covers entry names and argument
   shapes, so two builds of the same personality with the same API
   surface are the same target while a filtered spec is not. *)
type target = string

let default_target = "any#00000000"

let target_of ~os ~(table : Eof_rtos.Api.table) =
  let b = Buffer.create 512 in
  List.iter
    (fun (e : Eof_rtos.Api.entry) ->
      Buffer.add_string b e.Eof_rtos.Api.name;
      Buffer.add_char b '(';
      List.iter
        (fun (_, ty) ->
          Buffer.add_string b (Eof_rtos.Api.arg_type_to_string ty);
          Buffer.add_char b ',')
        e.Eof_rtos.Api.args;
      Buffer.add_char b ')';
      (match e.Eof_rtos.Api.ret with
       | `Resource k -> Buffer.add_string b k
       | `Status -> ());
      Buffer.add_char b ';')
    table.Eof_rtos.Api.entries;
  Printf.sprintf "%s#%08lx" os (Eof_util.Crc32.digest_string (Buffer.contents b))

type seed = {
  prog : Prog.t;
  hash : int;
  seq : int;  (** admission number: [total_added] when admitted or imported *)
  target : target;  (** personality the seed was admitted under *)
  new_edges : int;  (** edges credited at admission *)
  crashed : bool;
  mutable score : int;  (** selection weight, decays on reuse *)
  mutable picks : int;
}

(* Per-target frontier: the hashes of the most recent narrow finds
   (seeds admitted for a handful of new edges — the rare-path
   discoveries worth concentrating mutation energy on). *)
type frontier = { mutable rare : int list }

let frontier_cap = 16

type t = {
  rng : Eof_util.Rng.t;
  capacity : int;
  schedule : schedule;
  home : target;  (** default tag for locally admitted seeds *)
  mutable seeds : seed list;
      (** admission order, newest first: [seq] strictly decreases *)
  hashes : (int, unit) Hashtbl.t;  (** every hash ever admitted, evicted too *)
  frontiers : (target, frontier) Hashtbl.t;
  mutable total_added : int;
}

let create ?(capacity = 512) ?(schedule = Uniform) ?(target = default_target)
    ~rng () =
  {
    rng;
    capacity;
    schedule;
    home = target;
    seeds = [];
    hashes = Hashtbl.create 256;
    frontiers = Hashtbl.create 4;
    total_added = 0;
  }

let schedule t = t.schedule

let size t = List.length t.seeds

let is_empty t = t.seeds = []

let frontier t target =
  match Hashtbl.find_opt t.frontiers target with
  | Some f -> f
  | None ->
    let f = { rare = [] } in
    Hashtbl.replace t.frontiers target f;
    f

(* A narrow find — new coverage, but only a few edges — marks a rare
   path; its seed joins the target's frontier (same band the campaign
   uses to trigger a focus burst). *)
let rare_find ~new_edges = new_edges >= 1 && new_edges <= 4

let note_frontier t ~target ~hash ~new_edges =
  if rare_find ~new_edges then begin
    let f = frontier t target in
    let rare = List.filter (fun h -> h <> hash) f.rare in
    let rare = hash :: rare in
    let rec take n = function
      | [] -> []
      | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest
    in
    f.rare <- take frontier_cap rare
  end

let on_frontier t ~target prog =
  match Hashtbl.find_opt t.frontiers target with
  | None -> false
  | Some f -> List.mem (Prog.hash prog) f.rare

let frontier_size t ~target =
  match Hashtbl.find_opt t.frontiers target with
  | None -> 0
  | Some f -> List.length f.rare

let evict_if_full t =
  if List.length t.seeds > t.capacity then begin
    (* Drop the lowest-scoring seed; its hash stays in [hashes] and the
       survivors keep their admission order. *)
    let worst =
      List.fold_left
        (fun acc s -> match acc with Some w when w.score <= s.score -> acc | _ -> Some s)
        None t.seeds
    in
    match worst with
    | Some w -> t.seeds <- List.filter (fun s -> s != w) t.seeds
    | None -> ()
  end

let add ?target t ~prog ~new_edges ~crashed =
  let target = match target with Some tg -> tg | None -> t.home in
  let h = Prog.hash prog in
  if Hashtbl.mem t.hashes h then false
  else begin
    Hashtbl.replace t.hashes h ();
    let score = max 1 ((new_edges * 4) + (if crashed then 20 else 0)) in
    t.seeds <-
      { prog; hash = h; seq = t.total_added; target; new_edges; crashed; score; picks = 0 }
      :: t.seeds;
    t.total_added <- t.total_added + 1;
    note_frontier t ~target ~hash:h ~new_edges;
    evict_if_full t;
    true
  end

(* One weighted lottery draw over the live seeds; ages the winner.
   Both schedules select this way — they differ only in the energy
   granted to the winner. *)
let draw t =
  match t.seeds with
  | [] -> None
  | seeds ->
    let weighted = List.map (fun s -> (s, max 1 s.score)) seeds in
    let seed = Eof_util.Rng.weighted t.rng weighted in
    seed.picks <- seed.picks + 1;
    (* Decay so fresh discoveries get their turn. *)
    if seed.picks mod 4 = 0 then seed.score <- max 1 (seed.score * 3 / 4);
    Some seed

let pick t = match draw t with None -> None | Some s -> Some s.prog

let max_energy_shift = 4 (* energy is 1 lsl bonus, capped at 16 *)

(* AFLFast-style power schedule, in deterministic integers: frontier
   membership (a recent rare-path find under this target) doubles the
   budget twice, a first pick and a crash-or-broad find once each. *)
let energy_of t ~target seed =
  match t.schedule with
  | Uniform -> 1
  | Energy ->
    let on_frontier =
      match Hashtbl.find_opt t.frontiers target with
      | None -> false
      | Some f -> List.mem seed.hash f.rare
    in
    let bonus =
      (if on_frontier then 2 else 0)
      + (if seed.picks <= 1 then 1 else 0)
      + (if seed.crashed || seed.new_edges >= 8 then 1 else 0)
    in
    1 lsl min max_energy_shift bonus

let next t ~target =
  match draw t with
  | None -> None
  | Some seed -> Some (seed.prog, energy_of t ~target seed)

(* The live seeds admitted at or after [n], oldest first: the reversed
   prefix of the admission-ordered seed list. *)
let admitted_since t n =
  let rec go acc = function
    | s :: rest when s.seq >= n -> go (s :: acc) rest
    | _ -> acc
  in
  go [] t.seeds

let since t n = List.rev_map (fun s -> s.prog) (admitted_since t n)

let merge dst src ~since =
  (* Import oldest-first so the relative addition order of [src]'s seeds
     is preserved in [dst] (both lists are newest-first): merging a
     corpus into an empty one of the same capacity reproduces it
     exactly. Eviction runs after each import, exactly as in {!add}.
     Every scheduling field rides along — score, picks, admission
     credit and target tag — so a merged seed resumes its schedule
     position instead of starting over. Seeds admitted before [since]
     are skipped unseen: the caller merged them (or their hashes)
     already. *)
  let imported = ref 0 in
  List.iter
    (fun s ->
      if not (Hashtbl.mem dst.hashes s.hash) then begin
        Hashtbl.replace dst.hashes s.hash ();
        dst.seeds <- { s with seq = dst.total_added } :: dst.seeds;
        dst.total_added <- dst.total_added + 1;
        evict_if_full dst;
        incr imported
      end)
    (admitted_since src since);
  (* Frontier state merges too: [src]'s rare finds land ahead of
     [dst]'s (they are the newer imports from [dst]'s point of view),
     deduplicated, within the cap. Targets are visited in sorted order
     so merging is deterministic. *)
  let src_targets =
    Hashtbl.fold (fun tg f acc -> (tg, f) :: acc) src.frontiers []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (tg, (sf : frontier)) ->
      let df = frontier dst tg in
      let combined =
        sf.rare @ List.filter (fun h -> not (List.mem h sf.rare)) df.rare
      in
      let rec take n = function
        | [] -> []
        | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest
      in
      df.rare <- take frontier_cap combined)
    src_targets;
  !imported

let progs t = List.map (fun s -> s.prog) t.seeds

let total_added t = t.total_added
