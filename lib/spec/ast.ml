type ty =
  | Ty_int of { min : int64; max : int64 }
  | Ty_flags of (string * int64) list
  | Ty_str of { max_len : int }
  | Ty_buf of { max_len : int }
  | Ty_ptr of { base : int; size : int; null_ok : bool }
  | Ty_res of string

type call = {
  name : string;
  args : (string * ty) list;
  ret : string option;
  weight : int;
  doc : string;
}

type t = { os : string; resources : string list; calls : call list }

let is_pseudo call =
  String.length call.name >= 4 && String.sub call.name 0 4 = "syz_"

let find_call t name = List.find_opt (fun c -> c.name = name) t.calls

let producers t kind = List.filter (fun c -> c.ret = Some kind) t.calls

let pp_ty fmt = function
  | Ty_int { min; max } -> Format.fprintf fmt "int[%Ld:%Ld]" min max
  | Ty_flags flags ->
    Format.fprintf fmt "flags[%s]"
      (String.concat ", " (List.map (fun (n, v) -> Printf.sprintf "%s=%Ld" n v) flags))
  | Ty_str { max_len } -> Format.fprintf fmt "string[%d]" max_len
  | Ty_buf { max_len } -> Format.fprintf fmt "buffer[%d]" max_len
  | Ty_ptr { base; size; null_ok } ->
    Format.fprintf fmt "ptr[0x%x:0x%x%s]" base (base + size) (if null_ok then ", null" else "")
  | Ty_res kind -> Format.fprintf fmt "%s" kind

let ty_to_string ty = Format.asprintf "%a" pp_ty ty

let to_syzlang t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "# API specification for %s\n" t.os);
  Buffer.add_string buf (Printf.sprintf "os %s\n\n" t.os);
  List.iter (fun r -> Buffer.add_string buf (Printf.sprintf "resource %s\n" r)) t.resources;
  if t.resources <> [] then Buffer.add_char buf '\n';
  List.iter
    (fun call ->
      if call.doc <> "" then Buffer.add_string buf (Printf.sprintf "# %s\n" call.doc);
      let args =
        String.concat ", "
          (List.map (fun (n, ty) -> Printf.sprintf "%s %s" n (ty_to_string ty)) call.args)
      in
      let ret = match call.ret with Some r -> " " ^ r | None -> "" in
      let weight = if call.weight <> 1 then Printf.sprintf " @weight=%d" call.weight else "" in
      Buffer.add_string buf (Printf.sprintf "%s(%s)%s%s\n" call.name args ret weight))
    t.calls;
  Buffer.contents buf

(* Structural shape of a type with every parameter erased — ranges,
   lengths, pointer windows and resource kinds all dropped. Two calls
   whose argument shapes and return-resource-ness agree are candidates
   for cross-personality transplantation: the shape says the argument
   vector can be re-fitted, the (erased) parameters say how. *)
let shape_of_ty = function
  | Ty_int _ -> "int"
  | Ty_flags _ -> "flags"
  | Ty_str _ -> "str"
  | Ty_buf _ -> "buf"
  | Ty_ptr _ -> "ptr"
  | Ty_res _ -> "res"

let same_shape a b = String.equal (shape_of_ty a) (shape_of_ty b)

let equal_ty a b =
  match (a, b) with
  | Ty_int x, Ty_int y -> x.min = y.min && x.max = y.max
  | Ty_flags x, Ty_flags y -> x = y
  | Ty_str x, Ty_str y -> x.max_len = y.max_len
  | Ty_buf x, Ty_buf y -> x.max_len = y.max_len
  | Ty_ptr x, Ty_ptr y -> x.base = y.base && x.size = y.size && x.null_ok = y.null_ok
  | Ty_res x, Ty_res y -> String.equal x y
  | (Ty_int _ | Ty_flags _ | Ty_str _ | Ty_buf _ | Ty_ptr _ | Ty_res _), _ -> false

let equal_call a b =
  String.equal a.name b.name
  && a.ret = b.ret
  && a.weight = b.weight
  && List.length a.args = List.length b.args
  && List.for_all2
       (fun (n1, t1) (n2, t2) -> String.equal n1 n2 && equal_ty t1 t2)
       a.args b.args

let equal a b =
  String.equal a.os b.os
  && List.sort compare a.resources = List.sort compare b.resources
  && List.length a.calls = List.length b.calls
  && List.for_all2 equal_call a.calls b.calls
