type entry = { name : string; offset : int; size : int }

type t = entry list

let validate ~flash_size entries =
  let rec go seen_names regions = function
    | [] -> Ok ()
    | e :: rest ->
      if e.size <= 0 then Error (Printf.sprintf "partition %s: non-positive size" e.name)
      else if e.offset < 0 then
        Error (Printf.sprintf "partition %s: negative offset" e.name)
      else if e.offset + e.size > flash_size then
        Error
          (Printf.sprintf "partition %s: [0x%x,0x%x) exceeds flash size 0x%x" e.name
             e.offset (e.offset + e.size) flash_size)
      else if List.mem e.name seen_names then
        Error (Printf.sprintf "duplicate partition name %s" e.name)
      else
        (match Eof_util.Intervals.add regions ~lo:e.offset ~hi:(e.offset + e.size) with
         | Error msg -> Error (Printf.sprintf "partition %s: %s" e.name msg)
         | Ok regions -> go (e.name :: seen_names) regions rest)
  in
  go [] Eof_util.Intervals.empty entries

let find t name = List.find_opt (fun e -> e.name = name) t
