type arg_type =
  | A_int of { min : int64; max : int64 }
  | A_flags of (string * int64) list
  | A_str of { max_len : int }
  | A_buf of { max_len : int }
  | A_ptr of { base : int; size : int; null_ok : bool }
  | A_res of string

type value = V_int of int64 | V_str of string | V_res of int

type outcome = { status : int64; created : (string * int) option }

type entry = {
  name : string;
  args : (string * arg_type) list;
  ret : [ `Status | `Resource of string ];
  doc : string;
  weight : int;
  handler : value list -> outcome;
}

type table = { os : string; entries : entry list }

let produced_kind entry = match entry.ret with `Resource k -> Some k | `Status -> None

let make_table ~os entries =
  let names = List.map (fun e -> e.name) entries in
  let rec dup = function
    | [] -> None
    | x :: rest -> if List.mem x rest then Some x else dup rest
  in
  (match dup names with
   | Some n -> invalid_arg (Printf.sprintf "Api.make_table: duplicate entry %s" n)
   | None -> ());
  List.iter
    (fun e ->
      if e.weight < 1 then
        invalid_arg (Printf.sprintf "Api.make_table: %s has weight %d" e.name e.weight))
    entries;
  let produced = List.filter_map produced_kind entries in
  List.iter
    (fun e ->
      List.iter
        (fun (arg_name, ty) ->
          match ty with
          | A_res kind when not (List.mem kind produced) ->
            invalid_arg
              (Printf.sprintf "Api.make_table: %s.%s consumes kind %s nobody produces"
                 e.name arg_name kind)
          | _ -> ())
        e.args)
    entries;
  { os; entries }

let resource_kinds t =
  List.filter_map produced_kind t.entries |> List.sort_uniq compare

let nth args i = List.nth_opt args i

let get_int args i =
  match nth args i with Some (V_int v) -> Ok v | _ -> Error Kerr.einval

let get_str args i =
  match nth args i with Some (V_str s) -> Ok s | _ -> Error Kerr.einval

let get_buf args i =
  match nth args i with Some (V_str s) -> Ok s | _ -> Error Kerr.einval

let get_res args i =
  match nth args i with Some (V_res h) -> Ok h | _ -> Error Kerr.einval

let ok_status = { status = Kerr.ok; created = None }

let status code = { status = code; created = None }

let created ~kind ~handle = { status = Kerr.ok; created = Some (kind, handle) }

let arg_type_to_string = function
  | A_int { min; max } -> Printf.sprintf "int[%Ld:%Ld]" min max
  | A_flags flags ->
    Printf.sprintf "flags[%s]" (String.concat ", " (List.map fst flags))
  | A_str { max_len } -> Printf.sprintf "string[%d]" max_len
  | A_buf { max_len } -> Printf.sprintf "buffer[%d]" max_len
  | A_ptr { base; size; null_ok } ->
    Printf.sprintf "ptr[0x%x:0x%x%s]" base (base + size) (if null_ok then ", null" else "")
  | A_res kind -> Printf.sprintf "res[%s]" kind
