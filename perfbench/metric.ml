(* Named metrics, failure accounting and the result line. *)

(* Which clock a number comes from. [Exact] numbers are counts (or
   ratios of counts) that repeat to the last digit for a fixed campaign
   seed; only [Wall] numbers carry run-to-run noise. *)
type clock = Wall | Virtual | Exact

let clock_name = function Wall -> "wall" | Virtual -> "virtual" | Exact -> "exact"

type t = { name : string; value : float; unit_ : string; clock : clock }

let is_alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

(* 1-64 characters of letters, digits, '_', '.' and '-', starting with
   a letter or digit. *)
let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && is_alnum s.[0]
  && String.for_all (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (fun c -> is_alnum c || c = '_' || c = '/' || c = '%' || c = '.' || c = '-')
       s

let make name value unit_ clock =
  if not (valid_name name) then invalid_arg ("Metric.make: bad metric name " ^ name);
  if not (valid_unit unit_) then invalid_arg ("Metric.make: bad unit " ^ unit_);
  if not (Float.is_finite value) then
    invalid_arg (Printf.sprintf "Metric.make: %s is not finite" name);
  { name; value; unit_; clock }

(* [num / den], or 0 when nothing was counted. *)
let ratio num den = if den = 0. then 0. else num /. den

(* Failure accounting: [attempted] payloads, of which [failed] never
   produced a payload result or belong to a run that failed a check.
   Every failed check is also kept as a reason for stderr. *)
type tally = { mutable attempted : int; mutable failed : int; mutable reasons : string list }

let tally () = { attempted = 0; failed = 0; reasons = [] }

let attempt tally n = tally.attempted <- tally.attempted + n

let fail tally ~payloads reason =
  tally.failed <- tally.failed + payloads;
  tally.reasons <- reason :: tally.reasons

let check tally ~payloads cond reason = if not cond then fail tally ~payloads reason

let correct tally = tally.failed = 0 && tally.reasons = []

(* %.17g round-trips every float; JSON has no literal for the
   non-finite values [make] already refuses. *)
let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line tally metrics =
  let body =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value)
          m.unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct tally) tally.attempted tally.failed (String.concat ", " body)

let table_line m =
  Printf.sprintf "%-34s %16s %-14s %s" m.name (json_number m.value) m.unit_
    (clock_name m.clock)
