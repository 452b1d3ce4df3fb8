open Eof_spec
module Rng = Eof_util.Rng

type t = {
  rng : Rng.t;
  spec : Ast.t;
  calls : (Ast.call * int) array;  (* spec call, api-table index *)
  dep_aware : bool;
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

let create ?(dep_aware = true) ~rng ~spec ~table () =
  let calls = Array.of_list (Synth.index_map spec table) in
  if Array.length calls = 0 then invalid_arg "Gen.create: empty call set";
  {
    rng;
    spec;
    calls;
    dep_aware;
    int_hints = Hashtbl.create 128;
    hint_list = [||];
    hints_dirty = false;
  }

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

let dep_aware t = t.dep_aware

let gen_int t ~min ~max =
  let rng = t.rng in
  let pick_boundary () =
    match boundary_candidates ~min ~max with [] -> min | cs -> Rng.choose_list rng cs
  in
  let pick_hint () =
    let hs = hints t in
    if Array.length hs = 0 then pick_boundary ()
    else begin
      let v = hs.(Rng.int rng (Array.length hs)) in
      let in_range x = Int64.compare x min >= 0 && Int64.compare x max <= 0 in
      if in_range v then v
      else begin
        (* Fold the harvested constant into the argument's range. *)
        let span = Int64.add (Int64.sub max min) 1L in
        if Int64.compare span 0L <= 0 then pick_boundary ()
        else
          let folded = Int64.add min (Int64.rem (Int64.logand v Int64.max_int) span) in
          if in_range folded then folded else pick_boundary ()
      end
    end
  in
  match Rng.int rng 100 with
  | n when n < 30 -> Rng.int64_in rng min max
  | n when n < 50 -> pick_boundary ()
  | n when n < 60 ->
    (* input-to-state: replay a constant the target compared against *)
    pick_hint ()
  | n when n < 80 ->
    (match powers_of_two_in min max with
     | [] -> pick_boundary ()
     | ps -> Rng.choose_list rng ps)
  | n when n < 95 ->
    (* small values: most APIs branch near zero *)
    let hi = Int64.min max (Int64.add min 16L) in
    Rng.int64_in rng min hi
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

let gen_value t ~produced ty =
  match ty with
  | Ast.Ty_int { min; max } -> Prog.Int (gen_int t ~min ~max)
  | Ast.Ty_flags flags -> Prog.Int (gen_flags t flags)
  | Ast.Ty_str { max_len } | Ast.Ty_buf { max_len } -> Prog.Str (gen_string t ~max_len)
  | Ast.Ty_ptr { base; size; null_ok } ->
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
  | Ast.Ty_res kind ->
    (match produced kind with
     | [] -> Prog.Int 0L (* no producer: degrade to a bogus handle *)
     | ps ->
       (* Bias toward the most recent instance, as handwritten test
          cases do. *)
       let ps = List.rev ps in
       let idx = if Rng.chance t.rng 0.6 then List.hd ps else Rng.choose_list t.rng ps in
       Prog.Res idx)

let satisfiable produced (call : Ast.call) =
  List.for_all
    (fun (_, ty) -> match ty with Ast.Ty_res kind -> produced kind <> [] | _ -> true)
    call.Ast.args

let has_res_args (call : Ast.call) =
  List.exists (fun (_, ty) -> match ty with Ast.Ty_res _ -> true | _ -> false) call.Ast.args

let missing_kinds t produced =
  List.filter (fun kind -> produced kind = []) t.spec.Ast.resources

let pick_call t ~pos ~produced =
  let missing = missing_kinds t produced in
  let candidates =
    Array.to_list t.calls
    |> List.filter_map (fun (call, idx) ->
           if t.dep_aware then
             if satisfiable produced call then
               let boost =
                 match call.Ast.ret with
                 | Some kind when List.mem kind missing -> 3
                 | _ -> 1
               in
               Some ((call, idx), call.Ast.weight * boost)
             else None
           else if pos = 0 && has_res_args call then None
             (* even blind generation cannot emit a backward reference
                from the first call; the wire format forbids it *)
           else Some ((call, idx), call.Ast.weight))
  in
  match candidates with
  | [] -> None
  | cs -> Some (Rng.weighted t.rng cs)

let gen_args t ~pos ~produced (call : Ast.call) =
  List.map
    (fun (_, ty) ->
      match ty with
      | Ast.Ty_res kind when not t.dep_aware ->
        (* Blind mode: reference an arbitrary earlier call, usually of
           the wrong kind. *)
        ignore kind;
        if pos = 0 then Prog.Int 0L else Prog.Res (Rng.int t.rng pos)
      | ty -> gen_value t ~produced ty)
    call.Ast.args

let generate t ~max_len =
  let target = 1 + Rng.int t.rng (max max_len 1) in
  let acc = ref [] in
  let n = ref 0 in
  (* Producer positions per kind, appended as calls are emitted: the
     same ascending lists [Prog.producers_of] would find by rescanning
     the prefix, without the O(n^2) rescan on every resource argument. *)
  let producers : (string, int list) Hashtbl.t = Hashtbl.create 8 in
  let produced kind = Option.value (Hashtbl.find_opt producers kind) ~default:[] in
  for pos = 0 to target - 1 do
    match pick_call t ~pos ~produced with
    | None -> ()
    | Some (call, idx) ->
      let args = gen_args t ~pos ~produced call in
      acc := { Prog.spec = call; api_index = idx; args } :: !acc;
      Option.iter
        (fun kind -> Hashtbl.replace producers kind (produced kind @ [ !n ]))
        call.Ast.ret;
      incr n
  done;
  List.rev !acc

(* --- mutation ------------------------------------------------------- *)

(* Rebuild a call list after structural edits: remap resource
   references through [mapping] (old position -> new position), retarget
   dangling/mismatched references to some surviving producer of the
   right kind, and drop calls that cannot be satisfied (dep-aware
   mode). *)
let repair t (calls : Prog.call list) =
  let kept = ref [] in
  (* old position -> new position of kept calls *)
  let mapping = Hashtbl.create 16 in
  List.iteri
    (fun old_pos (call : Prog.call) ->
      let new_pos = List.length !kept in
      let produced kind = Prog.producers_of (List.rev !kept) kind in
      let ok = ref true in
      let args =
        List.map2
          (fun arg (_, ty) ->
            match (arg, ty) with
            | Prog.Res old_ref, Ast.Ty_res kind ->
              let retarget () =
                match produced kind with
                | [] ->
                  if t.dep_aware then ok := false;
                  Prog.Int 0L
                | ps -> Prog.Res (List.nth ps (Rng.int t.rng (List.length ps)))
              in
              (match Hashtbl.find_opt mapping old_ref with
               | Some new_ref ->
                 let target = List.nth (List.rev !kept) new_ref in
                 if target.Prog.spec.Ast.ret = Some kind then Prog.Res new_ref
                 else retarget ()
               | None -> retarget ())
            | Prog.Res _, _ ->
              (* a scalar slot holding a reference: regenerate *)
              gen_value t ~produced ty
            | arg, Ast.Ty_res kind ->
              if t.dep_aware then
                (match produced kind with
                 | [] ->
                   ok := false;
                   arg
                 | ps -> Prog.Res (List.nth ps (Rng.int t.rng (List.length ps))))
              else arg
            | arg, _ -> arg)
          call.Prog.args call.Prog.spec.Ast.args
      in
      if !ok then begin
        Hashtbl.replace mapping old_pos new_pos;
        kept := { call with Prog.args } :: !kept
      end)
    calls;
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

let mutate_arg t (prog : Prog.t) =
  let arr = Array.of_list prog in
  let with_args =
    Array.to_list arr
    |> List.mapi (fun i c -> (i, c))
    |> List.filter (fun (_, (c : Prog.call)) -> c.Prog.args <> [])
  in
  match with_args with
  | [] -> prog
  | _ ->
    let i, call = List.nth with_args (Rng.int t.rng (List.length with_args)) in
    let j = Rng.int t.rng (List.length call.Prog.args) in
    let produced kind =
      Prog.producers_of (Array.to_list (Array.sub arr 0 i)) kind
    in
    let _, ty = List.nth call.Prog.spec.Ast.args j in
    let args =
      List.mapi
        (fun k arg ->
          if k <> j then arg
          else if Rng.chance t.rng 0.6 then gen_value t ~produced ty
          else
            match arg with
            | Prog.Int v -> Prog.Int (tweak_int t v)
            | Prog.Str s -> Prog.Str (tweak_str t s)
            | Prog.Res _ -> gen_value t ~produced ty)
        call.Prog.args
    in
    arr.(i) <- { call with Prog.args };
    Array.to_list arr

(* [call] becomes position [pos]; references into the shifted suffix
   move up one. *)
let insert_at pos (call : Prog.call) prog =
  let prefix = List.filteri (fun i _ -> i < pos) prog in
  let suffix = List.filteri (fun i _ -> i >= pos) prog in
  let shift (c : Prog.call) =
    {
      c with
      Prog.args =
        List.map
          (function Prog.Res k when k >= pos -> Prog.Res (k + 1) | arg -> arg)
          c.Prog.args;
    }
  in
  prefix @ (call :: List.map shift suffix)

let insert_call t (prog : Prog.t) ~max_len =
  if List.length prog >= max_len then prog
  else begin
    let pos = Rng.int t.rng (List.length prog + 1) in
    let prefix = List.filteri (fun i _ -> i < pos) prog in
    let produced kind = Prog.producers_of prefix kind in
    match pick_call t ~pos ~produced with
    | None -> prog
    | Some (call, idx) ->
      let args = gen_args t ~pos ~produced call in
      insert_at pos { Prog.spec = call; api_index = idx; args } prog
  end

let delete_call t (prog : Prog.t) =
  if List.length prog <= 1 then prog
  else begin
    let pos = Rng.int t.rng (List.length prog) in
    repair t (List.filteri (fun i _ -> i <> pos) prog)
  end

let duplicate_call t (prog : Prog.t) ~max_len =
  if prog = [] || List.length prog >= max_len then prog
  else begin
    let pos = Rng.int t.rng (List.length prog) in
    let call = List.nth prog pos in
    insert_at (pos + 1) call prog
  end

let swap_adjacent t (prog : Prog.t) =
  if List.length prog < 2 then prog
  else begin
    let arr = Array.of_list prog in
    let i = Rng.int t.rng (Array.length arr - 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(i + 1);
    arr.(i + 1) <- tmp;
    repair t (Array.to_list arr)
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
  let int_args = ref [] in
  Array.iteri
    (fun i (c : Prog.call) ->
      List.iteri
        (fun j arg -> match arg with Prog.Int _ -> int_args := (i, j) :: !int_args | _ -> ())
        c.Prog.args)
    arr;
  match !int_args with
  | [] -> prog
  | picks ->
    let i, j = List.nth picks (Rng.int t.rng (List.length picks)) in
    let call = arr.(i) in
    let args =
      List.mapi
        (fun k arg ->
          if k <> j then arg
          else
            match arg with
            | Prog.Int v ->
              if Rng.chance t.rng 0.3 then
                let produced kind = Prog.producers_of (Array.to_list (Array.sub arr 0 i)) kind in
                (match List.nth_opt call.Prog.spec.Ast.args j with
                 | Some (_, ty) -> gen_value t ~produced ty
                 | None -> Prog.Int (tweak_int t v))
              else Prog.Int (tweak_int t v)
            | arg -> arg)
        call.Prog.args
    in
    arr.(i) <- { call with Prog.args };
    Array.to_list arr

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

let substitute_all _t prog ~pairs =
  List.concat_map
    (fun (pos, ai, r) -> [ patch prog (pos, ai, r); patch prog (pos, ai, Int64.add r 1L) ])
    (List.sort_uniq compare (i2s_candidates prog ~pairs))
