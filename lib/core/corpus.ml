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

(* Seeds live in [slots] in admission order, oldest first; an evicted
   seed leaves a [hole] until the array fills and is compacted. [fen] is
   a Fenwick tree over the slots' weights ([max 1 score], 0 for a hole
   or an unused slot), so a draw and a decay cost O(log slots). *)
type t = {
  rng : Eof_util.Rng.t;
  capacity : int;
  schedule : schedule;
  home : target;  (** default tag for locally admitted seeds *)
  mutable slots : seed array;
  mutable used : int;  (** slots filled so far, holes included *)
  mutable fen : int array;  (** 1-based: [fen.(i)] covers slots [i - lowbit i, i) *)
  mutable live : int;
  mutable total : int;  (** sum of the live weights *)
  hashes : (int, unit) Hashtbl.t;  (** every hash ever admitted, evicted too *)
  frontiers : (target, frontier) Hashtbl.t;
  mutable total_added : int;
}

let hole =
  {
    prog = [];
    hash = 0;
    seq = -1;
    target = default_target;
    new_edges = 0;
    crashed = false;
    score = 0;
    picks = 0;
  }

let weight s = if s == hole then 0 else max 1 s.score

let create ?(capacity = 512) ?(schedule = Uniform) ?(target = default_target)
    ~rng () =
  let n = 16 in
  {
    rng;
    capacity;
    schedule;
    home = target;
    slots = Array.make n hole;
    used = 0;
    fen = Array.make (n + 1) 0;
    live = 0;
    total = 0;
    hashes = Hashtbl.create 256;
    frontiers = Hashtbl.create 4;
    total_added = 0;
  }

let schedule t = t.schedule

let size t = t.live

let is_empty t = t.live = 0

(* --- slot storage and its Fenwick tree ------------------------------ *)

let fen_add t i delta =
  let n = Array.length t.slots in
  let i = ref (i + 1) in
  while !i <= n do
    t.fen.(!i) <- t.fen.(!i) + delta;
    i := !i + (!i land - !i)
  done;
  t.total <- t.total + delta

let rebuild t =
  let n = Array.length t.slots in
  if Array.length t.fen <> n + 1 then t.fen <- Array.make (n + 1) 0
  else Array.fill t.fen 0 (n + 1) 0;
  for i = 1 to n do
    t.fen.(i) <- t.fen.(i) + weight t.slots.(i - 1);
    let parent = i + (i land -i) in
    if parent <= n then t.fen.(parent) <- t.fen.(parent) + t.fen.(i)
  done

(* The slot where the running weight total, counted from the oldest
   slot, first exceeds [u]. *)
let find t u =
  let n = Array.length t.slots in
  let step = ref 1 in
  while 2 * !step <= n do
    step := 2 * !step
  done;
  let pos = ref 0 and rem = ref u in
  while !step > 0 do
    let next = !pos + !step in
    if next <= n && t.fen.(next) <= !rem then begin
      pos := next;
      rem := !rem - t.fen.(next)
    end;
    step := !step lsr 1
  done;
  !pos

let append t s =
  let n = Array.length t.slots in
  if t.used = n then begin
    (* Full: compact in admission order, doubling the array when more
       than half of it is live. *)
    let slots = Array.make (if 2 * t.live > n then 2 * n else n) hole in
    let j = ref 0 in
    Array.iter
      (fun s ->
        if s != hole then begin
          slots.(!j) <- s;
          incr j
        end)
      t.slots;
    t.slots <- slots;
    t.used <- !j;
    rebuild t
  end;
  t.slots.(t.used) <- s;
  fen_add t t.used (weight s);
  t.used <- t.used + 1;
  t.live <- t.live + 1

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
  if t.live > t.capacity then begin
    (* Drop the lowest-scoring seed, the newest on a tie; its hash stays
       in [hashes] and the survivors keep their admission order. *)
    let worst = ref (-1) in
    for i = t.used - 1 downto 0 do
      let s = t.slots.(i) in
      if s != hole && (!worst < 0 || s.score < t.slots.(!worst).score) then worst := i
    done;
    let w = !worst in
    fen_add t w (-weight t.slots.(w));
    t.slots.(w) <- hole;
    t.live <- t.live - 1
  end

let add ?target t ~prog ~new_edges ~crashed =
  let target = match target with Some tg -> tg | None -> t.home in
  let h = Prog.hash prog in
  if Hashtbl.mem t.hashes h then false
  else begin
    Hashtbl.replace t.hashes h ();
    let score = max 1 ((new_edges * 4) + (if crashed then 20 else 0)) in
    append t { prog; hash = h; seq = t.total_added; target; new_edges; crashed; score; picks = 0 };
    t.total_added <- t.total_added + 1;
    note_frontier t ~target ~hash:h ~new_edges;
    evict_if_full t;
    true
  end

(* One weighted lottery draw over the live seeds; ages the winner.
   Both schedules select this way — they differ only in the energy
   granted to the winner. The lottery runs newest first: the winner is
   the first seed whose running weight total, counted from the newest,
   exceeds [Rng.int total]. Counted from the oldest instead, that is the
   seed whose running total first exceeds [total - 1 - target], which
   the Fenwick tree finds in O(log slots). *)
let draw t =
  if t.live = 0 then None
  else begin
    let target = Eof_util.Rng.int t.rng t.total in
    let i = find t (t.total - 1 - target) in
    let seed = t.slots.(i) in
    seed.picks <- seed.picks + 1;
    (* Decay so fresh discoveries get their turn. *)
    if seed.picks mod 4 = 0 then begin
      let before = weight seed in
      seed.score <- max 1 (seed.score * 3 / 4);
      fen_add t i (weight seed - before)
    end;
    Some seed
  end

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

(* The first slot from which every live seed was admitted at or after
   [n]: admission numbers ascend with the slots. *)
let first_since t n =
  let rec go i =
    if i > 0 && (t.slots.(i - 1) == hole || t.slots.(i - 1).seq >= n) then go (i - 1) else i
  in
  go t.used

(* Live seeds' programs from slot [first] on, newest first. *)
let progs_from t first =
  let acc = ref [] in
  for i = first to t.used - 1 do
    let s = t.slots.(i) in
    if s != hole then acc := s.prog :: !acc
  done;
  !acc

let since t n = progs_from t (first_since t n)

let merge dst src ~since =
  (* Import oldest-first so the relative addition order of [src]'s seeds
     is preserved in [dst]: merging a corpus into an empty one of the
     same capacity reproduces it exactly. Eviction runs after each
     import, exactly as in {!add}. Every scheduling field rides along —
     score, picks, admission credit and target tag — so a merged seed
     resumes its schedule position instead of starting over. Seeds
     admitted before [since] are skipped unseen: the caller merged them
     (or their hashes) already. *)
  let imported = ref 0 in
  for i = first_since src since to src.used - 1 do
    let s = src.slots.(i) in
    if s != hole && not (Hashtbl.mem dst.hashes s.hash) then begin
      Hashtbl.replace dst.hashes s.hash ();
      append dst { s with seq = dst.total_added };
      dst.total_added <- dst.total_added + 1;
      evict_if_full dst;
      incr imported
    end
  done;
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

let progs t = progs_from t 0

let total_added t = t.total_added
