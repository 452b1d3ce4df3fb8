module Instr = Eof_rtos.Instr

type meth = GET | POST | PUT | DELETE | HEAD | OPTIONS

type request = {
  meth : meth;
  target : string;
  version : string;
  headers : (string * string) list;
  body : string;
}

type response = { status : int; reason : string; headers : (string * string) list; body : string }

(* Local site indices. *)
let s_entry = 0

let s_meth = 1

let s_target_len = 2

let s_target_query = 3

let s_version = 4

let s_header_count = 5

let s_header_name = 6

let s_header_clen = 7

let s_body_len = 8

let s_err = 9

let s_route = 10

let s_route_root = 11

let s_route_status = 12

let s_route_echo = 13

let s_route_metrics = 14

let s_route_devices = 15

let s_route_404 = 16

let s_echo_json_ok = 17

let s_echo_json_err = 18

let s_query_param = 19

let site_count = 24

let meth_to_string = function
  | GET -> "GET"
  | POST -> "POST"
  | PUT -> "PUT"
  | DELETE -> "DELETE"
  | HEAD -> "HEAD"
  | OPTIONS -> "OPTIONS"

let meth_of_string = function
  | "GET" -> Some GET
  | "POST" -> Some POST
  | "PUT" -> Some PUT
  | "DELETE" -> Some DELETE
  | "HEAD" -> Some HEAD
  | "OPTIONS" -> Some OPTIONS
  | _ -> None

let split_crlf_lines s =
  (* Split on CRLF; a lone LF is tolerated (curl-ish laxness). *)
  let lines = ref [] in
  let buf = Buffer.create 32 in
  String.iter
    (fun c ->
      match c with
      | '\n' ->
        let line = Buffer.contents buf in
        let line =
          if String.length line > 0 && line.[String.length line - 1] = '\r' then
            String.sub line 0 (String.length line - 1)
          else line
        in
        lines := line :: !lines;
        Buffer.clear buf
      | c -> Buffer.add_char buf c)
    s;
  if Buffer.length buf > 0 then lines := Buffer.contents buf :: !lines;
  List.rev !lines

let index_of_blank_line s =
  let n = String.length s in
  let rec go i =
    if i + 3 < n && s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
    then Some (i, i + 4)
    else if i + 1 < n && s.[i] = '\n' && s.[i + 1] = '\n' then Some (i, i + 2)
    else if i < n then go (i + 1)
    else None
  in
  go 0

let fail instr code msg =
  Instr.cmp_i instr s_err code 0;
  Error msg

let parse_header_line line =
  match String.index_opt line ':' with
  | None -> Error (Printf.sprintf "malformed header %S" line)
  | Some i ->
    let name = String.lowercase_ascii (String.trim (String.sub line 0 i)) in
    let value = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
    if name = "" then Error "empty header name" else Ok (name, value)

let parse_request ~instr raw =
  Instr.cmp_i instr s_entry (String.length raw) 0;
  match index_of_blank_line raw with
  | None -> fail instr 1 "no header/body separator"
  | Some (head_end, body_start) ->
    let head = String.sub raw 0 head_end in
    (match split_crlf_lines (head ^ "\n") with
     | [] -> fail instr 2 "empty request"
     | request_line :: header_lines ->
       (match String.split_on_char ' ' request_line with
        | [ m; target; version ] ->
          (match meth_of_string m with
           | None -> fail instr 3 (Printf.sprintf "unknown method %S" m)
           | Some meth ->
             (* Six methods = six branches, not a hash splatter. *)
             let meth_id =
               match meth with
               | GET -> 1 | POST -> 2 | PUT -> 3 | DELETE -> 4 | HEAD -> 5 | OPTIONS -> 6
             in
             Instr.cmp_i instr s_meth meth_id 0;
             if String.length target = 0 || target.[0] <> '/' then
               fail instr 4 "target must start with /"
             else begin
               Instr.cmp_i instr s_target_len (String.length target) 0;
               if String.contains target '?' then Instr.edge instr s_target_query;
               if version <> "HTTP/1.1" && version <> "HTTP/1.0" then
                 fail instr 5 (Printf.sprintf "unsupported version %S" version)
               else begin
                 Instr.edge instr s_version;
                 let rec collect acc = function
                   | [] -> Ok (List.rev acc)
                   | "" :: rest -> collect acc rest
                   | line :: rest ->
                     (match parse_header_line line with
                      | Ok h ->
                        Instr.cmp_i instr s_header_name
                          (Hashtbl.hash (fst h) land 0x7)
                          0;
                        collect (h :: acc) rest
                      | Error e -> Error e)
                 in
                 match collect [] header_lines with
                 | Error e -> fail instr 6 e
                 | Ok headers ->
                   Instr.cmp_i instr s_header_count (List.length headers) 0;
                   let body_avail = String.length raw - body_start in
                   let body_len =
                     match List.assoc_opt "content-length" headers with
                     | None -> 0
                     | Some v ->
                       Instr.edge instr s_header_clen;
                       (match int_of_string_opt v with
                        | Some n when n >= 0 -> min n body_avail
                        | _ -> 0)
                   in
                   Instr.cmp_i instr s_body_len body_len 0;
                   Ok
                     {
                       meth;
                       target;
                       version;
                       headers;
                       body = String.sub raw body_start body_len;
                     }
               end
             end)
        | _ -> fail instr 7 "malformed request line"))

let header (req : request) name = List.assoc_opt (String.lowercase_ascii name) req.headers

let text_response status reason body =
  { status; reason; headers = [ ("Content-Type", "text/plain") ]; body }

let json_response status reason body =
  { status; reason; headers = [ ("Content-Type", "application/json") ]; body }

module Server = struct
  type t = {
    instr : Instr.t;
    json_instr : Instr.t;
    mutable requests_served : int;
    mutable device_count : int;
  }

  let create ~instr ~json_instr =
    { instr; json_instr; requests_served = 0; device_count = 3 }

  let path_of_target target =
    match String.index_opt target '?' with
    | Some i -> String.sub target 0 i
    | None -> target

  let query_of_target t target =
    match String.index_opt target '?' with
    | None -> []
    | Some i ->
      String.sub target (i + 1) (String.length target - i - 1)
      |> String.split_on_char '&'
      |> List.filter_map (fun kv ->
             match String.index_opt kv '=' with
             | Some j ->
               Instr.cmp_i t.instr s_query_param (Hashtbl.hash kv land 0xF) 0;
               Some (String.sub kv 0 j, String.sub kv (j + 1) (String.length kv - j - 1))
             | None -> None)

  let route t (req : request) =
    let path = path_of_target req.target in
    Instr.cmp_i t.instr s_route (Hashtbl.hash path land 0xF) 0;
    match (req.meth, path) with
    | GET, "/" ->
      Instr.edge t.instr s_route_root;
      text_response 200 "OK" "eof demo application\n"
    | GET, "/status" ->
      Instr.edge t.instr s_route_status;
      json_response 200 "OK"
        (Printf.sprintf "{\"requests\":%d,\"devices\":%d}" t.requests_served t.device_count)
    | POST, "/api/echo" ->
      Instr.edge t.instr s_route_echo;
      (match Json.parse ~instr:t.json_instr req.body with
       | Ok doc ->
         Instr.edge t.instr s_echo_json_ok;
         (match Json.encode ~instr:t.json_instr doc with
          | Ok text -> json_response 200 "OK" text
          | Error `Too_deep -> text_response 413 "Payload Too Large" "json too deep\n")
       | Error e ->
         Instr.edge t.instr s_echo_json_err;
         text_response 400 "Bad Request" (e ^ "\n"))
    | GET, "/metrics" ->
      Instr.edge t.instr s_route_metrics;
      text_response 200 "OK"
        (Printf.sprintf "http_requests_total %d\n" t.requests_served)
    | GET, "/devices" ->
      Instr.edge t.instr s_route_devices;
      let q = query_of_target t req.target in
      let limit =
        match List.assoc_opt "limit" q with
        | Some v -> (match int_of_string_opt v with Some n when n > 0 -> min n 16 | _ -> 3)
        | None -> 3
      in
      let items = List.init (min limit t.device_count) (fun i -> Printf.sprintf "\"dev%d\"" i) in
      json_response 200 "OK" (Printf.sprintf "[%s]" (String.concat "," items))
    | DELETE, "/devices" ->
      t.device_count <- max 0 (t.device_count - 1);
      text_response 204 "No Content" ""
    | _, _ ->
      Instr.edge t.instr s_route_404;
      text_response 404 "Not Found" "no such route\n"

  let handle t raw =
    t.requests_served <- t.requests_served + 1;
    match parse_request ~instr:t.instr raw with
    | Ok req -> route t req
    | Error e -> text_response 400 "Bad Request" (e ^ "\n")

  let requests_served t = t.requests_served
end
