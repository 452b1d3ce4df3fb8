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

module Retry = struct
  type budget = {
    attempts : int;
    base_backoff_us : float;
    multiplier : float;
    max_backoff_us : float;
  }

  let default =
    { attempts = 3; base_backoff_us = 200.; multiplier = 2.; max_backoff_us = 5_000. }

  let backoff_us budget ~attempt =
    let raw =
      budget.base_backoff_us *. (budget.multiplier ** float_of_int (attempt - 1))
    in
    Float.min raw budget.max_backoff_us

  let run ~budget ~sleep_us ?on_retry f =
    if budget.attempts < 1 then invalid_arg "Retry.run: attempts must be >= 1";
    let rec go attempt =
      match f () with
      | Ok _ as ok -> ok
      | Error e when retryable e && attempt < budget.attempts ->
        sleep_us (backoff_us budget ~attempt);
        (match on_retry with Some h -> h ~attempt e | None -> ());
        go (attempt + 1)
      | Error e when attempt > 1 ->
        Error (with_context (Printf.sprintf "after %d attempts" attempt) e)
      | Error _ as err -> err
    in
    go 1
end
