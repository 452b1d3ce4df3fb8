open Eof_spec

type arg = Int of int64 | Str of string | Res of int

type call = { spec : Ast.call; api_index : int; args : arg list }

type t = call list

let to_wire t =
  List.map
    (fun call ->
      {
        Eof_agent.Wire.api_index = call.api_index;
        args =
          List.map
            (function
              | Int v -> Eof_agent.Wire.W_int v
              | Str s -> Eof_agent.Wire.W_str s
              | Res k -> Eof_agent.Wire.W_res k)
            call.args;
      })
    t

let length = List.length

let hash t =
  Hashtbl.hash
    (List.map
       (fun c -> (c.api_index, List.map (function Int v -> `I v | Str s -> `S s | Res k -> `R k) c.args))
       t)

let validate t =
  let arr = Array.of_list t in
  let rec go i =
    if i >= Array.length arr then Ok ()
    else begin
      let call = arr.(i) in
      if List.length call.args <> List.length call.spec.Ast.args then
        Error (Printf.sprintf "call %d (%s): arity mismatch" i call.spec.Ast.name)
      else begin
        let rec check_args args tys =
          match (args, tys) with
          | [], [] -> Ok ()
          | Res k :: rest, (_, Ast.Ty_res kind) :: trest ->
            if k < 0 || k >= i then
              Error (Printf.sprintf "call %d (%s): resource ref %d out of range" i call.spec.Ast.name k)
            else if arr.(k).spec.Ast.ret <> Some kind then
              Error
                (Printf.sprintf "call %d (%s): ref %d does not produce %s" i
                   call.spec.Ast.name k kind)
            else check_args rest trest
          | Res _ :: _, (_, _) :: _ ->
            Error (Printf.sprintf "call %d (%s): resource value for scalar arg" i call.spec.Ast.name)
          | _ :: _, (_, Ast.Ty_res _) :: _ ->
            Error (Printf.sprintf "call %d (%s): scalar value for resource arg" i call.spec.Ast.name)
          | _ :: rest, _ :: trest -> check_args rest trest
          | _, _ -> Error "arity"
        in
        match check_args call.args call.spec.Ast.args with
        | Ok () -> go (i + 1)
        | Error _ as e -> e
      end
    end
  in
  go 0

let of_wire ~spec ~table (wire : Eof_agent.Wire.program) =
  let entries = Array.of_list table.Eof_rtos.Api.entries in
  let rec go acc = function
    | [] ->
      let prog = List.rev acc in
      (match validate prog with Ok () -> Ok prog | Error e -> Error e)
    | (wc : Eof_agent.Wire.call) :: rest ->
      if wc.Eof_agent.Wire.api_index < 0 || wc.Eof_agent.Wire.api_index >= Array.length entries
      then Error (Printf.sprintf "api index %d out of table range" wc.Eof_agent.Wire.api_index)
      else begin
        let name = entries.(wc.Eof_agent.Wire.api_index).Eof_rtos.Api.name in
        match Ast.find_call spec name with
        | None -> Error (Printf.sprintf "call %S not in spec" name)
        | Some spec_call ->
          let args =
            List.map
              (function
                | Eof_agent.Wire.W_int v -> Int v
                | Eof_agent.Wire.W_str s -> Str s
                | Eof_agent.Wire.W_res k -> Res k)
              wc.Eof_agent.Wire.args
          in
          go ({ spec = spec_call; api_index = wc.Eof_agent.Wire.api_index; args } :: acc) rest
      end
  in
  go [] wire

let arg_to_string = function
  | Int v -> Int64.to_string v
  | Str s ->
    if String.length s <= 24 then Printf.sprintf "%S" s
    else Printf.sprintf "%S..<%d bytes>" (String.sub s 0 24) (String.length s)
  | Res k -> Printf.sprintf "r%d" k

let to_string t =
  String.concat "\n"
    (List.mapi
       (fun i call ->
         Printf.sprintf "%2d: %s(%s)%s" i call.spec.Ast.name
           (String.concat ", " (List.map arg_to_string call.args))
           (match call.spec.Ast.ret with Some r -> " -> " ^ r | None -> ""))
       t)
