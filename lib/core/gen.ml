open Eof_spec
module Rng = Eof_util.Rng

(* An integer argument's range with its boundary and power-of-two
   candidates, built once per distinct range. *)
type range = { min : int64; max : int64; bounds : int64 array; pows : int64 array }

(* How one argument is generated, decided once per call. *)
type slot =
  | Range of range
  | Kind of int  (** a resource argument: the kind id it consumes *)
  | Flags of (string * int64) list
  | Bytes of int  (** strings and buffers: the length bound *)
  | Ptr of { base : int; size : int; null_ok : bool }

(* One call as the picker sees it. Kinds are dense ids: the spec's
   resources first, in declaration order. *)
type info = {
  call : Ast.call;
  api_index : int;
  slots : slot array;
  needs : int array;  (** kind ids of the resource arguments *)
  ret : int;  (** kind id produced, or -1 *)
  boost : bool;  (** [ret] is a spec resource: x3 while nothing produces it *)
}

type t = {
  rng : Rng.t;
  calls : info array;
  by_api : int array;  (* api-table index -> index into [calls], or -1 *)
  kinds : (string, int) Hashtbl.t;
  resources : int;  (* kind ids below this are spec resources *)
  ranges : (int64 * int64, range) Hashtbl.t;
  dep_aware : bool;
  (* [pick]'s scratch: candidate call indices and running weight totals. *)
  cand : int array;
  cum : int array;
  (* The producer table of the program prefix being extended or
     repaired: per kind id, whether any call produces it and the
     ascending positions of those that do ([count] of them). *)
  mutable have : bool array;
  mutable count : int array;
  mutable at : int array array;
  (* Comparison operands harvested from the target's trace_cmp ring:
     the constants kernel code compares fuzz inputs against. *)
  int_hints : (int64, unit) Hashtbl.t;
  mutable hint_list : int64 array;
  mutable hints_dirty : bool;
}

(* Structure-bearing seeds for string/buffer arguments: JSON documents
   (including deep nesting), HTTP requests, device names, and the long
   names that overflow fixed fields. *)
let dictionary =
  [|
    "a";
    "config";
    "uart0";
    "/dev/ttyS0";
    "PATH";
    "name_that_is_quite_long_indeed_and_overflows";
    "{\"k\":1}";
    "{\"a\":{\"b\":{\"c\":{\"d\":{\"e\":{\"f\":{\"g\":{\"h\":{\"i\":{\"j\":1}}}}}}}}}";
    "[1,2,3]";
    "[[[[[[[[[[1]]]]]]]]]]";
    "{\"s\":\"v\\n\",\"n\":-3.5e2,\"b\":true,\"x\":null,\"u\":\"\\u0041\"}";
    "{bad json";
    "GET / HTTP/1.1\r\nHost: a\r\n\r\n";
    "POST /api/echo HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"k\":1}";
    "GET /devices?limit=8 HTTP/1.1\r\n\r\n";
    "GET /status HTTP/1.0\r\n\r\n";
    "DELETE /devices HTTP/1.1\r\n\r\n";
    "HELO / FTP/9.9\r\n\r\n";
    "status";
    "metrics";
    "api/echo";
    "devices?limit=3";
    "x=y";
    "";
  |]

let max_hints = 1024

(* Descending: candidates are drawn by index, so their order is part of
   the RNG stream. *)
let powers_of_two_in min max =
  let rec go acc p =
    if Int64.compare p 0L <= 0 || Int64.compare p max > 0 then acc
    else go (if Int64.compare p min >= 0 then p :: acc else acc) (Int64.mul p 2L)
  in
  go [] 1L

let boundary_candidates ~min ~max =
  List.filter
    (fun v -> Int64.compare v min >= 0 && Int64.compare v max <= 0)
    [ min; max; 0L; 1L; Int64.add min 1L; Int64.sub max 1L ]

let intern kinds kind =
  match Hashtbl.find_opt kinds kind with
  | Some k -> k
  | None ->
    let k = Hashtbl.length kinds in
    Hashtbl.replace kinds kind k;
    k

let range_of ranges ~min ~max =
  match Hashtbl.find_opt ranges (min, max) with
  | Some r -> r
  | None ->
    let r =
      {
        min;
        max;
        bounds = Array.of_list (boundary_candidates ~min ~max);
        pows = Array.of_list (powers_of_two_in min max);
      }
    in
    Hashtbl.replace ranges (min, max) r;
    r

let slot_of ~kinds ~ranges = function
  | Ast.Ty_int { min; max } -> Range (range_of ranges ~min ~max)
  | Ast.Ty_res kind -> Kind (intern kinds kind)
  | Ast.Ty_flags flags -> Flags flags
  | Ast.Ty_str { max_len } | Ast.Ty_buf { max_len } -> Bytes max_len
  | Ast.Ty_ptr { base; size; null_ok } -> Ptr { base; size; null_ok }

let info_of_call ~kinds ~ranges ~resources (call : Ast.call) api_index =
  let slots = Array.of_list (List.map (fun (_, ty) -> slot_of ~kinds ~ranges ty) call.Ast.args) in
  let needs =
    Array.of_list
      (List.filter_map (function Kind k -> Some k | _ -> None) (Array.to_list slots))
  in
  let ret = match call.Ast.ret with Some kind -> intern kinds kind | None -> -1 in
  { call; api_index; slots; needs; ret; boost = ret >= 0 && ret < resources }

(* Grow the producer table to every interned kind. *)
let fit_kinds t =
  let n = Hashtbl.length t.kinds and old = Array.length t.have in
  if n > old then begin
    let extend a fill = Array.init n (fun k -> if k < old then a.(k) else fill ()) in
    t.have <- extend t.have (fun () -> false);
    t.count <- extend t.count (fun () -> 0);
    t.at <- extend t.at (fun () -> Array.make 8 0)
  end

let create ?(dep_aware = true) ~rng ~spec ~table () =
  let pairs = Synth.index_map spec table in
  if pairs = [] then invalid_arg "Gen.create: empty call set";
  let kinds = Hashtbl.create 16 and ranges = Hashtbl.create 16 in
  List.iter (fun kind -> ignore (intern kinds kind : int)) spec.Ast.resources;
  let resources = Hashtbl.length kinds in
  let calls =
    Array.of_list
      (List.map (fun (call, idx) -> info_of_call ~kinds ~ranges ~resources call idx) pairs)
  in
  let by_api =
    Array.make (1 + Array.fold_left (fun m i -> max m i.api_index) 0 calls) (-1)
  in
  Array.iteri (fun c i -> if by_api.(i.api_index) < 0 then by_api.(i.api_index) <- c) calls;
  let n = Array.length calls and nk = Hashtbl.length kinds in
  {
    rng;
    calls;
    by_api;
    kinds;
    resources;
    ranges;
    dep_aware;
    cand = Array.make n 0;
    cum = Array.make n 0;
    have = Array.make nk false;
    count = Array.make nk 0;
    at = Array.init nk (fun _ -> Array.make 8 0);
    int_hints = Hashtbl.create 128;
    hint_list = [||];
    hints_dirty = false;
  }

(* The picker's view of a program call: precomputed when the call is
   this generator's own spec entry, built (interning any new kind) for
   a call of some other spec. *)
let info_of t (call : Prog.call) =
  let a = call.Prog.api_index in
  let c = if a >= 0 && a < Array.length t.by_api then t.by_api.(a) else -1 in
  if c >= 0 && t.calls.(c).call == call.Prog.spec then t.calls.(c)
  else begin
    let i =
      info_of_call ~kinds:t.kinds ~ranges:t.ranges ~resources:t.resources call.Prog.spec a
    in
    fit_kinds t;
    i
  end

let kind_id t kind = Hashtbl.find_opt t.kinds kind

(* --- the producer table --------------------------------------------- *)

let clear_producers t =
  Array.fill t.have 0 (Array.length t.have) false;
  Array.fill t.count 0 (Array.length t.count) 0

let add_producer t k pos =
  let n = t.count.(k) in
  if n = Array.length t.at.(k) then begin
    let grown = Array.make (2 * n) 0 in
    Array.blit t.at.(k) 0 grown 0 n;
    t.at.(k) <- grown
  end;
  t.at.(k).(n) <- pos;
  t.count.(k) <- n + 1;
  t.have.(k) <- true

(* The table of the first [n] calls of [prog]. *)
let load_prefix t (prog : Prog.t) n =
  clear_producers t;
  let rec go pos = function
    | call :: rest when pos < n ->
      let k = (info_of t call).ret in
      if k >= 0 then add_producer t k pos;
      go (pos + 1) rest
    | _ -> ()
  in
  go 0 prog

(* --- values --------------------------------------------------------- *)

let add_int_hint t v =
  if Hashtbl.length t.int_hints < max_hints && not (Hashtbl.mem t.int_hints v) then begin
    Hashtbl.replace t.int_hints v ();
    t.hints_dirty <- true
  end

let hint_count t = Hashtbl.length t.int_hints

let hints t =
  if t.hints_dirty then begin
    t.hint_list <- Array.of_seq (Seq.map fst (Hashtbl.to_seq t.int_hints));
    t.hints_dirty <- false
  end;
  t.hint_list

let pick_boundary t r =
  let n = Array.length r.bounds in
  if n = 0 then r.min else r.bounds.(Rng.int t.rng n)

let pick_hint t r =
  let hs = hints t in
  if Array.length hs = 0 then pick_boundary t r
  else begin
    let min = r.min and max = r.max in
    let v = hs.(Rng.int t.rng (Array.length hs)) in
    let in_range x = Int64.compare x min >= 0 && Int64.compare x max <= 0 in
    if in_range v then v
    else begin
      (* Fold the harvested constant into the argument's range. *)
      let span = Int64.add (Int64.sub max min) 1L in
      if Int64.compare span 0L <= 0 then pick_boundary t r
      else
        let folded = Int64.add min (Int64.rem (Int64.logand v Int64.max_int) span) in
        if in_range folded then folded else pick_boundary t r
    end
  end

let gen_int t r =
  let rng = t.rng in
  match Rng.int rng 100 with
  | n when n < 30 -> Rng.int64_in rng r.min r.max
  | n when n < 50 -> pick_boundary t r
  | n when n < 60 ->
    (* input-to-state: replay a constant the target compared against *)
    pick_hint t r
  | n when n < 80 ->
    let n = Array.length r.pows in
    if n = 0 then pick_boundary t r else r.pows.(Rng.int rng n)
  | n when n < 95 ->
    (* small values: most APIs branch near zero *)
    let hi = Int64.min r.max (Int64.add r.min 16L) in
    Rng.int64_in rng r.min hi
  | _ ->
    (* wild: deliberately out of range, testing validation paths *)
    Rng.next64 rng

let gen_string t ~max_len =
  let rng = t.rng in
  let cap s = if String.length s > max_len then String.sub s 0 max_len else s in
  match Rng.int rng 100 with
  | n when n < 40 -> cap (Rng.choose rng dictionary)
  | n when n < 75 ->
    let len = Rng.int rng (max_len + 1) in
    String.init len (fun _ ->
        let alphabet = "abcdefghijklmnopqrstuvwxyz0123456789_/.{}[]\":, " in
        alphabet.[Rng.int rng (String.length alphabet)])
  | n when n < 90 ->
    let len = Rng.int rng (max_len + 1) in
    String.make len (Char.chr (Rng.int rng 256))
  | _ -> Bytes.unsafe_to_string (Rng.bytes rng (Rng.int rng (max_len + 1)))

let gen_flags t flags =
  let rng = t.rng in
  let v =
    List.fold_left
      (fun acc (_, bit) -> if Rng.bool rng then Int64.logor acc bit else acc)
      0L flags
  in
  if Rng.chance rng 0.1 then 0L else v

(* A resource argument draws from the producer table. *)
let gen_res t k =
  let n = t.count.(k) in
  if n = 0 then Prog.Int 0L (* no producer: degrade to a bogus handle *)
  else begin
    (* Bias toward the most recent instance, as handwritten test cases
       do; otherwise uniform, counted from the newest. *)
    let ps = t.at.(k) in
    if Rng.chance t.rng 0.6 then Prog.Res ps.(n - 1)
    else Prog.Res ps.(n - 1 - Rng.int t.rng n)
  end

let gen_slot t = function
  | Range r -> Prog.Int (gen_int t r)
  | Kind k -> gen_res t k
  | Flags flags -> Prog.Int (gen_flags t flags)
  | Bytes max_len -> Prog.Str (gen_string t ~max_len)
  | Ptr { base; size; null_ok } ->
    (* Pointers: mostly valid RAM addresses (aligned and not), some
       NULLs, some garbage — what handwritten harnesses pass. *)
    let v =
      match Rng.int t.rng 100 with
      | n when n < 15 -> if null_ok then 0L else Int64.of_int base
      | n when n < 55 ->
        Int64.of_int (base + (Rng.int t.rng (max 1 (size / 4)) * 4))
      | n when n < 80 -> Int64.of_int (base + Rng.int t.rng (max 1 size))
      | _ -> Int64.logand (Rng.next64 t.rng) 0xFFFFFFFFL
    in
    Prog.Int v

let gen_value t ty =
  let slot = slot_of ~kinds:t.kinds ~ranges:t.ranges ty in
  fit_kinds t;
  clear_producers t;
  gen_slot t slot

(* --- call picks ----------------------------------------------------- *)

let rec satisfied have needs j =
  j = Array.length needs || (have.(needs.(j)) && satisfied have needs (j + 1))

(* One weighted draw over the calls eligible at [pos], in spec order:
   [cand]/[cum] hold each candidate and the running weight total, and
   the first candidate whose total exceeds [Rng.int total] wins.
   Returns an index into [calls], or -1 when nothing is eligible. *)
let pick t ~pos ~have =
  let n = ref 0 and total = ref 0 in
  for c = 0 to Array.length t.calls - 1 do
    let i = t.calls.(c) in
    let eligible =
      if t.dep_aware then satisfied have i.needs 0
      else
        (* even blind generation cannot emit a backward reference from
           the first call; the wire format forbids it *)
        pos > 0 || Array.length i.needs = 0
    in
    if eligible then begin
      let w = i.call.Ast.weight in
      let w = if t.dep_aware && i.boost && not have.(i.ret) then w * 3 else w in
      total := !total + max 0 w;
      t.cand.(!n) <- c;
      t.cum.(!n) <- !total;
      incr n
    end
  done;
  if !n = 0 then -1
  else begin
    if !total <= 0 then invalid_arg "Gen.pick_call: total weight must be positive";
    let target = Rng.int t.rng !total in
    let j = ref 0 in
    while target >= t.cum.(!j) do
      incr j
    done;
    t.cand.(!j)
  end

let pick_call t ~pos ~have =
  match pick t ~pos ~have with
  | -1 -> None
  | c -> Some (t.calls.(c).call, t.calls.(c).api_index)

let gen_args t ~pos (i : info) =
  let rec go j =
    if j = Array.length i.slots then []
    else begin
      let v =
        match i.slots.(j) with
        | Kind _ when not t.dep_aware ->
          (* Blind mode: reference an arbitrary earlier call, usually of
             the wrong kind. *)
          if pos = 0 then Prog.Int 0L else Prog.Res (Rng.int t.rng pos)
        | slot -> gen_slot t slot
      in
      v :: go (j + 1)
    end
  in
  go 0

let new_call t ~pos c =
  let i = t.calls.(c) in
  { Prog.spec = i.call; api_index = i.api_index; args = gen_args t ~pos i }

let generate t ~max_len =
  let target = 1 + Rng.int t.rng (max max_len 1) in
  let acc = ref [] in
  let n = ref 0 in
  (* Producers are appended to the table as calls are emitted. *)
  clear_producers t;
  for pos = 0 to target - 1 do
    match pick t ~pos ~have:t.have with
    | -1 -> ()
    | c ->
      acc := new_call t ~pos c :: !acc;
      let k = t.calls.(c).ret in
      if k >= 0 then add_producer t k !n;
      incr n
  done;
  List.rev !acc

(* --- mutation ------------------------------------------------------- *)

(* Rebuild a call sequence after structural edits: remap resource
   references (old position -> new position), retarget dangling or
   mismatched references to some surviving producer of the right kind,
   and drop calls that cannot be satisfied (dep-aware mode). The
   producer table grows with the kept calls. *)
let repair t (calls : Prog.call array) =
  let n = Array.length calls in
  let mapping = Array.make n (-1) in
  (* new position -> kind id produced *)
  let rets = Array.make n (-1) in
  let kept = ref [] and nkept = ref 0 in
  clear_producers t;
  let any_producer k = Prog.Res t.at.(k).(Rng.int t.rng t.count.(k)) in
  for old_pos = 0 to n - 1 do
    let call = calls.(old_pos) in
    let i = info_of t call in
    let ok = ref true in
    let j = ref 0 in
    let args =
      List.map2
        (fun arg _ ->
          let slot = i.slots.(!j) in
          incr j;
          match (arg, slot) with
          | Prog.Res old_ref, Kind k ->
            let new_ref = if old_ref >= 0 && old_ref < n then mapping.(old_ref) else -1 in
            if new_ref >= 0 && rets.(new_ref) = k then Prog.Res new_ref
            else if t.count.(k) = 0 then begin
              if t.dep_aware then ok := false;
              Prog.Int 0L
            end
            else any_producer k
          | Prog.Res _, slot ->
            (* a scalar slot holding a reference: regenerate *)
            gen_slot t slot
          | arg, Kind k ->
            if not t.dep_aware then arg
            else if t.count.(k) = 0 then begin
              ok := false;
              arg
            end
            else any_producer k
          | arg, _ -> arg)
        call.Prog.args call.Prog.spec.Ast.args
    in
    if !ok then begin
      mapping.(old_pos) <- !nkept;
      rets.(!nkept) <- i.ret;
      if i.ret >= 0 then add_producer t i.ret !nkept;
      kept := { call with Prog.args } :: !kept;
      incr nkept
    end
  done;
  List.rev !kept

let tweak_int t v =
  (* Multi-scale arithmetic steps: fine steps converge on a comparison
     target once distance buckets reward the direction; coarse steps and
     bit flips escape plateaus. *)
  match Rng.int t.rng 10 with
  | 0 | 1 | 2 -> Int64.add v (Int64.of_int (1 + Rng.int t.rng 32))
  | 3 | 4 | 5 -> Int64.sub v (Int64.of_int (1 + Rng.int t.rng 32))
  | 6 -> Int64.logxor v (Int64.shift_left 1L (Rng.int t.rng 8))
  | 7 -> Int64.logxor v (Int64.shift_left 1L (Rng.int t.rng 63))
  | 8 -> Int64.neg v
  | _ -> Int64.mul v 2L

let tweak_str t s =
  let b = Bytes.of_string s in
  match Rng.int t.rng 3 with
  | 0 -> Bytes.unsafe_to_string (Bytes.cat b (Bytes.make 1 (Char.chr (Rng.int t.rng 256))))
  | 1 when Bytes.length b > 0 -> Bytes.sub_string b 0 (Bytes.length b - 1)
  | _ when Bytes.length b > 0 ->
    Bytes.set b (Rng.int t.rng (Bytes.length b)) (Char.chr (Rng.int t.rng 256));
    Bytes.unsafe_to_string b
  | _ -> "x"

(* Regenerate the value in [slot] of the call at [pos]: a resource
   draws from the producers before [pos]. *)
let regen t prog ~pos slot =
  (match slot with Kind _ -> load_prefix t prog pos | _ -> ());
  gen_slot t slot

let mutate_arg t (prog : Prog.t) =
  let arr = Array.of_list prog in
  let with_args =
    Array.fold_left (fun n (c : Prog.call) -> if c.Prog.args <> [] then n + 1 else n) 0 arr
  in
  if with_args = 0 then prog
  else begin
    (* the r-th call that has arguments *)
    let rec find i r =
      if arr.(i).Prog.args = [] then find (i + 1) r
      else if r = 0 then i
      else find (i + 1) (r - 1)
    in
    let i = find 0 (Rng.int t.rng with_args) in
    let call = arr.(i) in
    let j = Rng.int t.rng (List.length call.Prog.args) in
    let slot = (info_of t call).slots.(j) in
    let args =
      List.mapi
        (fun k arg ->
          if k <> j then arg
          else if Rng.chance t.rng 0.6 then regen t prog ~pos:i slot
          else
            match arg with
            | Prog.Int v -> Prog.Int (tweak_int t v)
            | Prog.Str s -> Prog.Str (tweak_str t s)
            | Prog.Res _ -> regen t prog ~pos:i slot)
        call.Prog.args
    in
    arr.(i) <- { call with Prog.args };
    Array.to_list arr
  end

(* [call] becomes position [pos]; references into the shifted suffix
   move up one. *)
let insert_at pos (call : Prog.call) prog =
  let shift (c : Prog.call) =
    if List.exists (function Prog.Res k -> k >= pos | _ -> false) c.Prog.args then
      {
        c with
        Prog.args =
          List.map (function Prog.Res k when k >= pos -> Prog.Res (k + 1) | arg -> arg) c.Prog.args;
      }
    else c
  in
  let rec go i = function
    | rest when i = pos -> call :: List.map shift rest
    | c :: rest -> c :: go (i + 1) rest
    | [] -> [ call ]
  in
  go 0 prog

let insert_call t (prog : Prog.t) ~max_len =
  let len = List.length prog in
  if len >= max_len then prog
  else begin
    let pos = Rng.int t.rng (len + 1) in
    load_prefix t prog pos;
    match pick t ~pos ~have:t.have with
    | -1 -> prog
    | c -> insert_at pos (new_call t ~pos c) prog
  end

let delete_call t (prog : Prog.t) =
  let len = List.length prog in
  if len <= 1 then prog
  else begin
    let pos = Rng.int t.rng len in
    let arr = Array.of_list prog in
    repair t (Array.init (len - 1) (fun i -> if i < pos then arr.(i) else arr.(i + 1)))
  end

let duplicate_call t (prog : Prog.t) ~max_len =
  let len = List.length prog in
  if len = 0 || len >= max_len then prog
  else begin
    let pos = Rng.int t.rng len in
    insert_at (pos + 1) (List.nth prog pos) prog
  end

let swap_adjacent t (prog : Prog.t) =
  if List.length prog < 2 then prog
  else begin
    let arr = Array.of_list prog in
    let i = Rng.int t.rng (Array.length arr - 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(i + 1);
    arr.(i + 1) <- tmp;
    repair t arr
  end

let mutate_once t prog ~max_len =
  match Rng.int t.rng 100 with
  | n when n < 45 -> mutate_arg t prog
  | n when n < 65 -> insert_call t prog ~max_len
  | n when n < 80 -> delete_call t prog
  | n when n < 90 -> duplicate_call t prog ~max_len
  | _ -> swap_adjacent t prog

(* Focused mutation: the burst after a narrow find exists to finish a
   comparison gradient, so it only touches integer arguments (tweaks and
   hint replays) and grows the call chain — string churn belongs to the
   exploration phase. *)
let mutate_int_arg t (prog : Prog.t) =
  let arr = Array.of_list prog in
  let ints (c : Prog.call) =
    List.fold_left (fun n arg -> match arg with Prog.Int _ -> n + 1 | _ -> n) 0 c.Prog.args
  in
  let total = Array.fold_left (fun n c -> n + ints c) 0 arr in
  if total = 0 then prog
  else begin
    (* Integer arguments are counted from the last one back. *)
    let rec find i r = let n = ints arr.(i) in if r < n then (i, r) else find (i + 1) (r - n) in
    let i, r = find 0 (total - 1 - Rng.int t.rng total) in
    let call = arr.(i) in
    let slots = (info_of t call).slots in
    let seen = ref (-1) in
    let args =
      List.mapi
        (fun k arg ->
          match arg with
          | Prog.Int v ->
            incr seen;
            if !seen <> r then arg
            else if Rng.chance t.rng 0.3 && k < Array.length slots then
              regen t prog ~pos:i slots.(k)
            else Prog.Int (tweak_int t v)
          | arg -> arg)
        call.Prog.args
    in
    arr.(i) <- { call with Prog.args };
    Array.to_list arr
  end

let mutate_focus t prog ~max_len =
  let mutated =
    match Rng.int t.rng 100 with
    | n when n < 70 -> mutate_int_arg t prog
    | n when n < 90 -> duplicate_call t prog ~max_len
    | _ -> insert_call t prog ~max_len
  in
  match mutated with [] -> generate t ~max_len | p -> p

let mutate t prog ~max_len =
  (* Stack a few edits, as AFL's havoc stage does: single tweaks mostly
     re-execute the parent. *)
  let rounds = 1 + Rng.int t.rng 3 in
  let rec go prog n = if n <= 0 then prog else go (mutate_once t prog ~max_len) (n - 1) in
  match go prog rounds with [] -> generate t ~max_len | p -> p


let low32 v = Int64.logand v 0xFFFFFFFFL

(* Comparisons against tiny constants (0, 1, small counters) match fuzz
   inputs constantly by coincidence; Redqueen handles this with input
   colorization, we simply ignore the noisy low values. *)
let informative v = Int64.compare (low32 v) 8L >= 0

(* Every (position, arg index, replacement) an informative comparison
   pair suggests: an integer argument equal (low 32 bits) to one
   operand of a pair takes the other operand. Latest candidate first. *)
let i2s_candidates prog ~pairs =
  let pairs =
    List.filter
      (fun (a, b) ->
        informative a && informative b && not (Int64.equal (low32 a) (low32 b)))
      pairs
  in
  let candidates = ref [] in
  List.iteri
    (fun pos (call : Prog.call) ->
      List.iteri
        (fun ai arg ->
          match arg with
          | Prog.Int v ->
            List.iter
              (fun (a, b) ->
                if Int64.equal (low32 v) (low32 a) then
                  candidates := (pos, ai, b) :: !candidates
                else if Int64.equal (low32 v) (low32 b) then
                  candidates := (pos, ai, a) :: !candidates)
              pairs
          | Prog.Str _ | Prog.Res _ -> ())
        call.Prog.args)
    prog;
  !candidates

let patch prog (pos, ai, replacement) =
  List.mapi
    (fun p (call : Prog.call) ->
      if p <> pos then call
      else
        {
          call with
          Prog.args =
            List.mapi (fun i arg -> if i = ai then Prog.Int replacement else arg) call.Prog.args;
        })
    prog

let substitute t prog ~pairs =
  match i2s_candidates prog ~pairs with
  | [] -> None
  | cs ->
    let pos, ai, replacement = List.nth cs (Rng.int t.rng (List.length cs)) in
    (* Strict-inequality guards want the constant plus or minus one as
       often as the constant itself. *)
    let replacement =
      match Rng.int t.rng 3 with
      | 0 -> replacement
      | 1 -> Int64.add replacement 1L
      | _ -> Int64.sub replacement 1L
    in
    Some (patch prog (pos, ai, replacement))

let substitute_all _t prog ~pairs f =
  let rec go = function
    | [] -> ()
    | (pos, ai, r) :: rest ->
      if f (patch prog (pos, ai, r)) && f (patch prog (pos, ai, Int64.add r 1L)) then go rest
  in
  go (List.sort_uniq compare (i2s_candidates prog ~pairs))
