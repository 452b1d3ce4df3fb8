type kind = Bus_fault | Usage_fault | Hard_fault | Mem_manage_fault

type t = { kind : kind; address : int option; message : string }

exception Trap of t

let raise_fault kind address message = raise (Trap { kind; address; message })

let bus ?address message = raise_fault Bus_fault address message

let usage ?address message = raise_fault Usage_fault address message

let mem_manage ?address message = raise_fault Mem_manage_fault address message

let kind_name = function
  | Bus_fault -> "BusFault"
  | Usage_fault -> "UsageFault"
  | Hard_fault -> "HardFault"
  | Mem_manage_fault -> "MemManageFault"

let to_string t =
  match t.address with
  | Some a -> Printf.sprintf "%s at 0x%08x: %s" (kind_name t.kind) a t.message
  | None -> Printf.sprintf "%s: %s" (kind_name t.kind) t.message
