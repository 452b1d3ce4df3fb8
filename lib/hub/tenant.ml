type config = {
  tenant : string;
  os : string;
  seed : int64;
  iterations : int;
  boards : int;
  farms : int;
  sync_every : int;
  backend : Eof_agent.Machine.backend;
  reset_policy : Eof_core.Campaign.reset_policy;
  schedule : Eof_core.Corpus.schedule;
}

let default =
  {
    tenant = "default";
    os = "Zephyr";
    seed = 1L;
    iterations = 200;
    boards = 1;
    farms = 1;
    sync_every = 25;
    backend = Eof_agent.Machine.Native;
    reset_policy = Eof_core.Campaign.Ladder;
    schedule = Eof_core.Corpus.Uniform;
  }

let name_ok name =
  name <> ""
  && String.length name <= 64
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '-' || c = '_')
       name

(* The widest values the hub protocol carries: iterations and
   sync_every travel as u32 words that decode into non-negative ints,
   boards and farms as u16, the os name as a u16-prefixed string. *)
let max_u32 = 0x7FFF_FFFF

let max_u16 = 0xFFFF

let validate c =
  let over name max = Error (Printf.sprintf "%s must be <= %d" name max) in
  if not (name_ok c.tenant) then
    Error
      (Printf.sprintf "tenant %S: must be 1-64 chars of [A-Za-z0-9_-]" c.tenant)
  else if c.os = "" then Error "os must not be empty"
  else if String.length c.os > max_u16 then over "os length" max_u16
  else if c.iterations < 1 then Error "iterations must be >= 1"
  else if c.iterations > max_u32 then over "iterations" max_u32
  else if c.boards < 1 then Error "boards must be >= 1"
  else if c.boards > max_u16 then over "boards" max_u16
  else if c.farms < 1 then Error "farms must be >= 1"
  else if c.farms > max_u16 then over "farms" max_u16
  else if c.sync_every < 1 then Error "sync_every must be >= 1"
  else if c.sync_every > max_u32 then over "sync_every" max_u32
  else Ok ()

let to_string c =
  Printf.sprintf
    "%s: os=%s seed=%Ld iterations=%d farms=%d boards=%d backend=%s reset=%s \
     schedule=%s"
    c.tenant c.os c.seed c.iterations c.farms c.boards
    (Eof_agent.Machine.backend_name c.backend)
    (Eof_core.Campaign.reset_policy_name c.reset_policy)
    (Eof_core.Corpus.schedule_name c.schedule)

(* key=value[,key=value...] — the CLI's compact one-flag-per-tenant
   submission syntax. *)
let of_spec s =
  let parse_kv acc token =
    match acc with
    | Error _ as e -> e
    | Ok c ->
      (match String.index_opt token '=' with
       | None -> Error (Printf.sprintf "tenant spec: %S is not key=value" token)
       | Some i ->
         let key = String.sub token 0 i in
         let v = String.sub token (i + 1) (String.length token - i - 1) in
         let int_of k =
           match int_of_string_opt v with
           | Some n -> Ok n
           | None -> Error (Printf.sprintf "tenant spec: bad %s %S" k v)
         in
         (match key with
          | "name" | "tenant" -> Ok { c with tenant = v }
          | "os" -> Ok { c with os = v }
          | "seed" ->
            (match Int64.of_string_opt v with
             | Some seed -> Ok { c with seed }
             | None -> Error (Printf.sprintf "tenant spec: bad seed %S" v))
          | "iterations" | "n" ->
            Result.map (fun iterations -> { c with iterations }) (int_of "iterations")
          | "boards" -> Result.map (fun boards -> { c with boards }) (int_of "boards")
          | "farms" -> Result.map (fun farms -> { c with farms }) (int_of "farms")
          | "sync" | "sync_every" ->
            Result.map (fun sync_every -> { c with sync_every }) (int_of "sync_every")
          | "backend" ->
            Result.map
              (fun backend -> { c with backend })
              (Eof_agent.Machine.backend_of_name v)
          | "reset" | "reset_policy" ->
            Result.map
              (fun reset_policy -> { c with reset_policy })
              (Eof_core.Campaign.reset_policy_of_name v)
          | "schedule" ->
            Result.map
              (fun schedule -> { c with schedule })
              (Eof_core.Corpus.schedule_of_name v)
          | k -> Error (Printf.sprintf "tenant spec: unknown key %S" k)))
  in
  match List.fold_left parse_kv (Ok default) (String.split_on_char ',' s) with
  | Error _ as e -> e
  | Ok c -> (match validate c with Ok () -> Ok c | Error e -> Error e)
