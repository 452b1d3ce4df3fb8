open Eof_spec

(* Cross-personality transplantation: retype a program admitted under
   one API table against another personality's spec/table, so a seed
   that paid for itself on FreeRTOS can prime the Zephyr shards. The
   mapping is deterministic — no RNG anywhere — so the hub relaying a
   transplant is as replayable as everything else:

   - calls match by resource signature ({!Ast.same_shape} per argument:
     shapes in order plus return-resource-ness), taking the first
     destination call, in destination table order, whose resource
     kinds are consistent with the kind mapping accumulated so far
     (src kind -> dst kind, injective); a producer whose resource the
     program later consumes prefers, among the shape-compatible
     candidates, the first whose destination kind can also serve those
     consumer shapes — without the lookahead a producer binds to a
     kind nothing downstream can use and the consumers drop, which
     breaks round-trip stability;
   - unmappable calls are dropped, and surviving resource references
     are remapped through the survivors (a reference whose producer
     was dropped retargets to the most recent surviving producer of
     the right kind, or drops the call);
   - scalar arguments are re-fitted to the destination types: integers
     clamp into the destination range, flags mask to the destination
     bit set, pointers clamp into the destination window, strings and
     buffers truncate;
   - the result must pass {!Prog.validate} — a transplant that cannot
     be proven well-typed is discarded, never relayed. *)

type outcome = { prog : Prog.t; kept : int; dropped : int }

(* Extend the kind mapping with src->dst if consistent; the mapping is
   kept injective so two distinct source kinds never collapse into one
   destination kind (which would let a mutex double as a queue). *)
let bind_kind kmap rmap sk dk =
  match (List.assoc_opt sk kmap, List.assoc_opt dk rmap) with
  | Some dk', _ -> if String.equal dk' dk then Some (kmap, rmap) else None
  | None, Some sk' -> if String.equal sk' sk then Some (kmap, rmap) else None
  | None, None -> Some ((sk, dk) :: kmap, (dk, sk) :: rmap)

(* Do the two argument vectors agree shape-for-shape, and do their
   resource kinds extend the mapping consistently? *)
let rec args_compat kmap rmap sargs dargs =
  match (sargs, dargs) with
  | [], [] -> Some (kmap, rmap)
  | (_, sty) :: srest, (_, dty) :: drest ->
    (match (sty, dty) with
     | Ast.Ty_res sk, Ast.Ty_res dk ->
       (match bind_kind kmap rmap sk dk with
        | None -> None
        | Some (kmap, rmap) -> args_compat kmap rmap srest drest)
     | sty, dty ->
       if Ast.same_shape sty dty then args_compat kmap rmap srest drest
       else None)
  | _, _ -> None

let call_compat kmap rmap (src : Ast.call) (dst : Ast.call) =
  let ret_bound =
    match (src.Ast.ret, dst.Ast.ret) with
    | None, None -> Some (kmap, rmap)
    | Some sk, Some dk -> bind_kind kmap rmap sk dk
    | Some _, None | None, Some _ -> None
  in
  match ret_bound with
  | None -> None
  | Some (kmap, rmap) -> args_compat kmap rmap src.Ast.args dst.Ast.args

(* Lookahead shape test: could [dst] stand in for consumer [src] once
   the produced kind maps sk -> dk? Resource kinds other than [sk] are
   wildcards — their bindings are settled when the consumer itself is
   mapped. *)
let wild_shape_compat ~sk ~dk (src : Ast.call) (dst : Ast.call) =
  (match (src.Ast.ret, dst.Ast.ret) with
   | None, None | Some _, Some _ -> true
   | Some _, None | None, Some _ -> false)
  && List.length src.Ast.args = List.length dst.Ast.args
  && List.for_all2
       (fun (_, sty) (_, dty) ->
         match (sty, dty) with
         | Ast.Ty_res k, Ast.Ty_res k' ->
           (not (String.equal k sk)) || String.equal k' dk
         | Ast.Ty_res _, _ | _, Ast.Ty_res _ -> false
         | sty, dty -> Ast.same_shape sty dty)
       src.Ast.args dst.Ast.args

(* Every consumer shape of the produced resource must have at least one
   destination entry able to accept kind [dk] in the same slot. *)
let serves_consumers dst_calls ~consumers ~sk ~dk =
  List.for_all
    (fun cs ->
      List.exists (fun ((dcall : Ast.call), _) -> wild_shape_compat ~sk ~dk cs dcall) dst_calls)
    consumers

(* Most recent already-kept position producing [kind], scanning the
   kept list (newest-first). *)
let recent_producer kept kind =
  let rec go = function
    | [] -> None
    | (pos, c) :: rest ->
      if c.Prog.spec.Ast.ret = Some kind then Some pos else go rest
  in
  go kept

let clamp_int v ~min ~max =
  if Int64.compare v min < 0 then min
  else if Int64.compare v max > 0 then max
  else v

let flags_union flags =
  List.fold_left (fun acc (_, bit) -> Int64.logor acc bit) 0L flags

(* Re-fit one argument to the destination slot type. [kept] is the
   surviving prefix (newest-first, with new positions); [remap] maps
   old positions to new ones. Returns [None] when a resource slot
   cannot be satisfied — the caller drops the whole call. *)
let refit_arg ~kept ~remap arg (dty : Ast.ty) =
  match (arg, dty) with
  | Prog.Res r, Ast.Ty_res dk ->
    (match List.assoc_opt r remap with
     | Some r' ->
       (match List.assoc_opt r' kept with
        | Some (c : Prog.call) when c.Prog.spec.Ast.ret = Some dk -> Some (Prog.Res r')
        | Some _ | None ->
          (match recent_producer kept dk with
           | Some p -> Some (Prog.Res p)
           | None -> None))
     | None ->
       (* the producer was dropped: retarget to a surviving one *)
       (match recent_producer kept dk with
        | Some p -> Some (Prog.Res p)
        | None -> None))
  | _, Ast.Ty_res dk ->
    (* a degraded scalar in a resource slot (blind-mode seeds): give it
       a real producer or drop the call *)
    (match recent_producer kept dk with
     | Some p -> Some (Prog.Res p)
     | None -> None)
  | Prog.Int v, Ast.Ty_int { min; max } -> Some (Prog.Int (clamp_int v ~min ~max))
  | Prog.Int v, Ast.Ty_flags flags -> Some (Prog.Int (Int64.logand v (flags_union flags)))
  | Prog.Int v, Ast.Ty_ptr { base; size; null_ok } ->
    let lo = Int64.of_int base and hi = Int64.of_int (base + size) in
    if null_ok && Int64.equal v 0L then Some (Prog.Int 0L)
    else if Int64.compare v lo >= 0 && Int64.compare v hi < 0 then Some (Prog.Int v)
    else Some (Prog.Int lo)
  | Prog.Str s, (Ast.Ty_str { max_len } | Ast.Ty_buf { max_len }) ->
    Some (Prog.Str (if String.length s > max_len then String.sub s 0 max_len else s))
  | Prog.Str _, (Ast.Ty_int _ | Ast.Ty_flags _ | Ast.Ty_ptr _) ->
    (* shape-matched slots cannot disagree on str-ness; refuse rather
       than guess if a malformed seed slips through *)
    None
  | Prog.Int _, (Ast.Ty_str { max_len = _ } | Ast.Ty_buf { max_len = _ }) -> None
  | Prog.Res _, (Ast.Ty_int _ | Ast.Ty_flags _ | Ast.Ty_str _ | Ast.Ty_buf _ | Ast.Ty_ptr _)
    ->
    None

let rec refit_args ~kept ~remap args dtys acc =
  match (args, dtys) with
  | [], [] -> Some (List.rev acc)
  | arg :: arest, (_, dty) :: drest ->
    (match refit_arg ~kept ~remap arg dty with
     | None -> None
     | Some arg' -> refit_args ~kept ~remap arest drest (arg' :: acc))
  | _, _ -> None

let retype ~dst_spec ~dst_table (prog : Prog.t) =
  let dst_calls = Synth.index_map dst_spec dst_table in
  (* kmap/rmap: committed src-kind <-> dst-kind mapping; kept:
     surviving calls newest-first as (new position, call); remap: old
     position -> new position. *)
  let kmap = ref [] and rmap = ref [] in
  let kept = ref [] and remap = ref [] in
  let n_kept = ref 0 and n_dropped = ref 0 in
  (* Downstream consumer shapes per producing position, for the
     lookahead. *)
  let consumers = Array.make (List.length prog) [] in
  List.iteri
    (fun _ (c : Prog.call) ->
      List.iter
        (function
          | Prog.Res r when r >= 0 && r < Array.length consumers ->
            consumers.(r) <- consumers.(r) @ [ c.Prog.spec ]
          | _ -> ())
        c.Prog.args)
    prog;
  List.iteri
    (fun old_pos (call : Prog.call) ->
      let search ~lookahead =
        List.find_map
          (fun ((dcall : Ast.call), didx) ->
            match call_compat !kmap !rmap call.Prog.spec dcall with
            | None -> None
            | Some (kmap', rmap') ->
              let consumers_served =
                (not lookahead)
                ||
                match (call.Prog.spec.Ast.ret, dcall.Ast.ret) with
                | Some sk, Some dk ->
                  serves_consumers dst_calls ~consumers:consumers.(old_pos) ~sk ~dk
                | _ -> true
              in
              if not consumers_served then None
              else (
                match
                  refit_args ~kept:!kept ~remap:!remap call.Prog.args dcall.Ast.args []
                with
                | None -> None
                | Some args -> Some (dcall, didx, args, kmap', rmap')))
          dst_calls
      in
      let candidate =
        match call.Prog.spec.Ast.ret with
        | Some sk when consumers.(old_pos) <> [] && not (List.mem_assoc sk !kmap) ->
          (* Prefer a destination kind the downstream consumers can
             live with; fall back to plain shape matching when no
             candidate serves them all. *)
          (match search ~lookahead:true with
           | Some c -> Some c
           | None -> search ~lookahead:false)
        | _ -> search ~lookahead:false
      in
      match candidate with
      | None -> incr n_dropped
      | Some (dcall, didx, args, kmap', rmap') ->
        let new_pos = !n_kept in
        kmap := kmap';
        rmap := rmap';
        kept := (new_pos, { Prog.spec = dcall; api_index = didx; args }) :: !kept;
        remap := (old_pos, new_pos) :: !remap;
        incr n_kept)
    prog;
  if !n_kept = 0 then None
  else begin
    let prog' = List.rev_map snd !kept in
    match Prog.validate prog' with
    | Ok () -> Some { prog = prog'; kept = !n_kept; dropped = !n_dropped }
    | Error _ -> None
  end
