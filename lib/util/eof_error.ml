type kind =
  | Link_timeout
  | Link_desync of string
  | Protocol of string
  | Remote of int
  | Flash of string
  | Missing_blob of string
  | Agent of string
  | Config of string
  | Board_dead of string

type t = { kind : kind; ctx : string list }

let make kind = { kind; ctx = [] }

let timeout = make Link_timeout

let desync msg = make (Link_desync msg)

let protocol msg = make (Protocol msg)

let remote n = make (Remote n)

let flash msg = make (Flash msg)

let missing_blob name = make (Missing_blob name)

let agent msg = make (Agent msg)

let config msg = make (Config msg)

let board_dead rung = make (Board_dead rung)

let with_context crumb t = { t with ctx = crumb :: t.ctx }

let retryable t =
  match t.kind with
  | Link_timeout | Link_desync _ -> true
  | Protocol _ | Remote _ | Flash _ | Missing_blob _ | Agent _ | Config _
  | Board_dead _ ->
    false

let kind_to_string = function
  | Link_timeout -> "debug link timeout"
  | Link_desync msg -> "debug link desync: " ^ msg
  | Protocol msg -> "protocol error: " ^ msg
  | Remote n -> Printf.sprintf "remote error E%02x" n
  | Flash msg -> "flash error: " ^ msg
  | Missing_blob name -> Printf.sprintf "image has no blob for partition %s" name
  | Agent msg -> "agent error: " ^ msg
  | Config msg -> "config error: " ^ msg
  | Board_dead rung -> Printf.sprintf "board dead (ladder exhausted at %s)" rung

let to_string t =
  match t.ctx with
  | [] -> kind_to_string t.kind
  | ctx -> String.concat ": " (List.rev ctx) ^ ": " ^ kind_to_string t.kind
