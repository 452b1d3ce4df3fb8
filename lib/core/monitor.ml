type detection =
  | Panic_banner of { os : string; message : string }
  | Assertion_failure of { os : string; message : string }
  | Backtrace_frame of string

let rec matches line i s k =
  k = String.length s || (line.[i + k] = s.[k] && matches line i s (k + 1))

(* [s] occurs in [line] at offset [i]. *)
let has_at line i s = i + String.length s <= String.length line && matches line i s 0

let rec skip p line i = if i < String.length line && p line.[i] then skip p line (i + 1) else i

let is_blank c = c = ' ' || (c >= '\t' && c <= '\r')

let is_digit c = c >= '0' && c <= '9'

let rest line i = String.sub line i (String.length line - i)

(* "[<os>]<tag><msg>", as Klog emits them: <os> is non-empty and runs to
   the first ']'. *)
let bracketed line tag =
  if line = "" || line.[0] <> '[' then None
  else
    match String.index_opt line ']' with
    | Some j when j > 1 && has_at line (j + 1) tag ->
      Some (String.sub line 1 (j - 1), rest line (j + 1 + String.length tag))
    | _ -> None

(* "<blanks>Level <digits>: <frame>"; blanks are ' ' and '\t'..'\r'. *)
let frame line =
  let l = skip is_blank line 0 in
  if not (has_at line l "Level ") then None
  else
    let e = skip is_digit line (l + 6) in
    if e > l + 6 && has_at line e ": " then Some (rest line (e + 2)) else None

let scan_line line =
  match bracketed line " KERNEL PANIC: " with
  | Some (os, message) -> Some (Panic_banner { os; message })
  | None ->
    (match bracketed line " ASSERTION FAILED: " with
     | Some (os, message) -> Some (Assertion_failure { os; message })
     | None -> Option.map (fun f -> Backtrace_frame f) (frame line))

let scan text =
  String.split_on_char '\n' text |> List.filter_map scan_line

let assert_operation message =
  match String.index_opt message ':' with
  | Some i when i > 0 -> Some (String.trim (String.sub message 0 i))
  | _ -> None

let collect_backtrace detections =
  List.filter_map (function Backtrace_frame f -> Some f | _ -> None) detections

let first_panic detections =
  List.find_map
    (function Panic_banner { os; message } -> Some (os, message) | _ -> None)
    detections

let first_assertion detections =
  List.find_map
    (function Assertion_failure { os; message } -> Some (os, message) | _ -> None)
    detections
