module Level = struct
  type t = Trace | Debug | Info | Warn | Error

  let severity = function
    | Trace -> 0
    | Debug -> 1
    | Info -> 2
    | Warn -> 3
    | Error -> 4

  let to_string = function
    | Trace -> "trace"
    | Debug -> "debug"
    | Info -> "info"
    | Warn -> "warn"
    | Error -> "error"

  let of_string s =
    match String.lowercase_ascii s with
    | "trace" -> Ok Trace
    | "debug" -> Ok Debug
    | "info" -> Ok Info
    | "warn" | "warning" -> Ok Warn
    | "error" -> Ok Error
    | other -> Error (Printf.sprintf "unknown log level %S (trace|debug|info|warn|error)" other)

  let at_least ~min l = severity l >= severity min
end

type value = V_int of int | V_float of float | V_str of string | V_bool of bool

module Event = struct
  type t =
    | Exchange of { tx : int; rx : int; timeout : bool }
    | Batch of { ops : int }
    | Stop of { kind : string; pc : int }
    | Flash_op of { op : string; addr : int; len : int }
    | Drain of { records : int; cmp : int; log_bytes : int; fused : bool }
    | Liveness_verdict of { verdict : string; pc : int }
    | Reflash_partition of { partition : string; bytes : int }
    | Restore_done of { partitions : int }
    | Snapshot_save of { pages : int }
    | Snapshot_restore of { dirty : int }
    | Reset_board
    | Payload of { iteration : int; status : string; new_edges : int }
    | Crash_found of { kind : string; operation : string }
    | Corpus_admit of { new_edges : int; size : int }
    | Seed_scheduled of { energy : int; frontier : bool }
    | Transplant_retyped of { from_os : string; to_os : string; kept : int; dropped : int }
    | Epoch_sync of { sync : int; executed : int; coverage : int }
    | Link_fault of { fault : string; exchange : int }
    | Recovery of { rung : string; attempt : int }
    | Worker_joined of { worker : int; name : string }
    | Worker_lost of { worker : int; leases : int }
    | Shard_reassigned of {
        campaign : int;
        shard : int;
        epoch : int;
        from_worker : int;
        to_worker : int;
      }
    | Lease_fenced of { campaign : int; shard : int; epoch : int; kind : string }
    | Journal_replay of { frames : int; campaigns : int; reset : int }
    | Span of { name : string; dur_us : float }
    | Message of { level : Level.t; text : string }

  let name = function
    | Exchange _ -> "exchange"
    | Batch _ -> "batch"
    | Stop _ -> "stop"
    | Flash_op _ -> "flash"
    | Drain _ -> "drain"
    | Liveness_verdict _ -> "liveness"
    | Reflash_partition _ -> "reflash"
    | Restore_done _ -> "restore"
    | Snapshot_save _ -> "snapshot-save"
    | Snapshot_restore _ -> "snapshot-restore"
    | Reset_board -> "reset"
    | Payload _ -> "payload"
    | Crash_found _ -> "crash"
    | Corpus_admit _ -> "corpus-admit"
    | Seed_scheduled _ -> "seed-scheduled"
    | Transplant_retyped _ -> "transplant-retyped"
    | Epoch_sync _ -> "epoch-sync"
    | Link_fault _ -> "link-fault"
    | Recovery _ -> "recovery"
    | Worker_joined _ -> "worker-joined"
    | Worker_lost _ -> "worker-lost"
    | Shard_reassigned _ -> "shard-reassigned"
    | Lease_fenced _ -> "lease-fenced"
    | Journal_replay _ -> "journal-replay"
    | Span _ -> "span"
    | Message _ -> "message"

  let level = function
    | Exchange _ | Batch _ -> Level.Trace
    | Stop _ | Flash_op _ | Drain _ | Span _ | Reset_board | Payload _ -> Level.Debug
    | Liveness_verdict { verdict; _ } ->
      (match verdict with
       | "pc-stalled" | "connection-lost" -> Level.Warn
       | _ -> Level.Trace)
    | Reflash_partition _ | Corpus_admit _ | Epoch_sync _ -> Level.Info
    | Seed_scheduled _ -> Level.Debug
    | Transplant_retyped _ -> Level.Info
    | Snapshot_save _ -> Level.Info
    | Snapshot_restore _ -> Level.Debug
    | Link_fault _ -> Level.Debug
    | Recovery _ -> Level.Warn
    | Worker_joined _ -> Level.Info
    | Worker_lost _ | Shard_reassigned _ | Lease_fenced _ -> Level.Warn
    | Journal_replay _ -> Level.Info
    | Restore_done _ | Crash_found _ -> Level.Warn
    | Message { level; _ } -> level

  let fields = function
    | Exchange { tx; rx; timeout } ->
      [ ("tx", V_int tx); ("rx", V_int rx); ("timeout", V_bool timeout) ]
    | Batch { ops } -> [ ("ops", V_int ops) ]
    | Stop { kind; pc } -> [ ("kind", V_str kind); ("pc", V_int pc) ]
    | Flash_op { op; addr; len } ->
      [ ("op", V_str op); ("addr", V_int addr); ("len", V_int len) ]
    | Drain { records; cmp; log_bytes; fused } ->
      [ ("records", V_int records); ("cmp", V_int cmp);
        ("log_bytes", V_int log_bytes); ("fused", V_bool fused) ]
    | Liveness_verdict { verdict; pc } ->
      [ ("verdict", V_str verdict); ("pc", V_int pc) ]
    | Reflash_partition { partition; bytes } ->
      [ ("partition", V_str partition); ("bytes", V_int bytes) ]
    | Restore_done { partitions } -> [ ("partitions", V_int partitions) ]
    | Snapshot_save { pages } -> [ ("pages", V_int pages) ]
    | Snapshot_restore { dirty } -> [ ("dirty", V_int dirty) ]
    | Reset_board -> []
    | Payload { iteration; status; new_edges } ->
      [ ("iteration", V_int iteration); ("status", V_str status);
        ("new_edges", V_int new_edges) ]
    | Crash_found { kind; operation } ->
      [ ("kind", V_str kind); ("operation", V_str operation) ]
    | Corpus_admit { new_edges; size } ->
      [ ("new_edges", V_int new_edges); ("size", V_int size) ]
    | Seed_scheduled { energy; frontier } ->
      [ ("energy", V_int energy); ("frontier", V_bool frontier) ]
    | Transplant_retyped { from_os; to_os; kept; dropped } ->
      [ ("from_os", V_str from_os); ("to_os", V_str to_os);
        ("kept", V_int kept); ("dropped", V_int dropped) ]
    | Epoch_sync { sync; executed; coverage } ->
      [ ("sync", V_int sync); ("executed", V_int executed); ("coverage", V_int coverage) ]
    | Link_fault { fault; exchange } ->
      [ ("fault", V_str fault); ("exchange", V_int exchange) ]
    | Recovery { rung; attempt } ->
      [ ("rung", V_str rung); ("attempt", V_int attempt) ]
    | Worker_joined { worker; name } ->
      [ ("worker", V_int worker); ("name", V_str name) ]
    | Worker_lost { worker; leases } ->
      [ ("worker", V_int worker); ("leases", V_int leases) ]
    | Shard_reassigned { campaign; shard; epoch; from_worker; to_worker } ->
      [ ("campaign", V_int campaign); ("shard", V_int shard);
        ("epoch", V_int epoch); ("from_worker", V_int from_worker);
        ("to_worker", V_int to_worker) ]
    | Lease_fenced { campaign; shard; epoch; kind } ->
      [ ("campaign", V_int campaign); ("shard", V_int shard);
        ("epoch", V_int epoch); ("kind", V_str kind) ]
    | Journal_replay { frames; campaigns; reset } ->
      [ ("frames", V_int frames); ("campaigns", V_int campaigns);
        ("reset", V_int reset) ]
    | Span { name; dur_us } -> [ ("name", V_str name); ("dur_us", V_float dur_us) ]
    | Message { level; text } ->
      [ ("level", V_str (Level.to_string level)); ("text", V_str text) ]
end

type sink = {
  min_level : Level.t;
  write : t:float -> board:int option -> tenant:string option -> Event.t -> unit;
}

(* The shared half of a bus: every handle derived with {!for_board}
   points at the same sinks and counters. The lock keeps a bus safe to
   share across OCaml domains; every in-tree producer emits from one
   domain, so it is never contended. *)
type core = {
  mutable sinks : sink list;
  mutable active : bool;
  counters : (string, int ref) Hashtbl.t;
  lock : Mutex.t;
}

type t = {
  core : core;
  board : int option;
  tenant : string option;
  mutable now : unit -> float;
}

let create () =
  {
    core = { sinks = []; active = false; counters = Hashtbl.create 32; lock = Mutex.create () };
    board = None;
    tenant = None;
    now = (fun () -> 0.);
  }

let for_board t board = { t with board = Some board }

let for_tenant t tenant = { t with tenant = Some tenant }

let set_clock t now = t.now <- now

let active t = t.core.active

let add_sink t sink =
  t.core.sinks <- t.core.sinks @ [ sink ];
  t.core.active <- true

let emit t ev =
  if t.core.active then begin
    let time = t.now () in
    Mutex.lock t.core.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.core.lock)
      (fun () ->
        List.iter
          (fun sink ->
            if Level.at_least ~min:sink.min_level (Event.level ev) then
              sink.write ~t:time ~board:t.board ~tenant:t.tenant ev)
          t.core.sinks)
  end

let message t level text = emit t (Event.Message { level; text })

(* --- counters ---------------------------------------------------------- *)

module Counter = struct
  type bus = t

  type t = int ref

  let make (bus : bus) name =
    match Hashtbl.find_opt bus.core.counters name with
    | Some r -> r
    | None ->
      let r = ref 0 in
      Hashtbl.replace bus.core.counters name r;
      r

  let incr r = incr r

  let add r n = r := !r + n
end

let counter_value t name =
  match Hashtbl.find_opt t.core.counters name with Some r -> !r | None -> 0

let counters t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.core.counters []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* --- spans -------------------------------------------------------------- *)

(* A kind's two counters are found on its first end, not when it is
   made, so a kind that never ends adds no counter to the bus. *)
type span_kind = {
  kind_name : string;
  count : Counter.t Lazy.t;
  us : Counter.t Lazy.t;
}

let span_kind t name =
  {
    kind_name = name;
    count = lazy (Counter.make t ("span." ^ name ^ ".count"));
    us = lazy (Counter.make t ("span." ^ name ^ ".us"));
  }

type span = { kind : span_kind; t0 : float }

let span_begin t kind = { kind; t0 = t.now () }

let span_end t { kind; t0 } =
  let dur_us = (t.now () -. t0) *. 1e6 in
  Counter.incr (Lazy.force kind.count);
  Counter.add (Lazy.force kind.us) (int_of_float dur_us);
  if active t then emit t (Event.Span { name = kind.kind_name; dur_us })

(* --- built-in sinks ----------------------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let value_to_json = function
  | V_int n -> string_of_int n
  | V_float f -> Printf.sprintf "%.3f" f
  | V_str s -> "\"" ^ json_escape s ^ "\""
  | V_bool b -> if b then "true" else "false"

let event_to_json ~t ~board ~tenant ev =
  let b = Buffer.create 128 in
  Buffer.add_string b (Printf.sprintf "{\"t\":%.6f" t);
  (match tenant with
   | Some name -> Buffer.add_string b (Printf.sprintf ",\"tenant\":\"%s\"" (json_escape name))
   | None -> ());
  (match board with
   | Some i -> Buffer.add_string b (Printf.sprintf ",\"board\":%d" i)
   | None -> ());
  Buffer.add_string b (Printf.sprintf ",\"ev\":\"%s\"" (Event.name ev));
  List.iter
    (fun (k, v) ->
      Buffer.add_string b (Printf.sprintf ",\"%s\":%s" k (value_to_json v)))
    (Event.fields ev);
  Buffer.add_char b '}';
  Buffer.contents b

let jsonl_sink ?(min_level = Level.Trace) oc =
  {
    min_level;
    write =
      (fun ~t ~board ~tenant ev ->
        output_string oc (event_to_json ~t ~board ~tenant ev);
        output_char oc '\n');
  }

let value_to_text = function
  | V_int n -> string_of_int n
  | V_float f -> Printf.sprintf "%.3f" f
  | V_str s -> s
  | V_bool b -> if b then "true" else "false"

let render_console ~t ~board ~tenant ev =
  let b = Buffer.create 96 in
  Buffer.add_string b
    (Printf.sprintf "eof[%-5s] %12.6f " (Level.to_string (Event.level ev)) t);
  (match tenant with
   | Some name -> Buffer.add_string b (name ^ " ")
   | None -> ());
  (match board with
   | Some i -> Buffer.add_string b (Printf.sprintf "b%d " i)
   | None -> ());
  (match ev with
   | Event.Message { text; _ } -> Buffer.add_string b text
   | ev ->
     Buffer.add_string b (Event.name ev);
     List.iter
       (fun (k, v) ->
         Buffer.add_char b ' ';
         Buffer.add_string b k;
         Buffer.add_char b '=';
         Buffer.add_string b (value_to_text v))
       (Event.fields ev));
  Buffer.contents b

let console_sink ?(min_level = Level.Info) () =
  {
    min_level;
    write =
      (fun ~t ~board ~tenant ev ->
        output_string stderr (render_console ~t ~board ~tenant ev);
        output_char stderr '\n';
        flush stderr);
  }

let memory_sink ?(min_level = Level.Trace) () =
  let events = ref [] in
  ( { min_level; write = (fun ~t ~board ~tenant:_ ev -> events := (t, board, ev) :: !events) },
    fun () -> List.rev !events )

let sink ?(min_level = Level.Trace) write = { min_level; write }
