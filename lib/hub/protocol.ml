module Machine = Eof_agent.Machine
module Crash = Eof_core.Crash
module Campaign = Eof_core.Campaign

(* "EOFH" read as a big-endian word; the frame itself is little-endian
   throughout — this is a host-to-host protocol, there is no target
   byte order to match (contrast {!Eof_agent.Wire}). *)
let magic = 0x454F4648l

(* v2: tenant configs and shard assignments carry a reset-policy byte.
   v3: they additionally carry a schedule byte and a generator-mode
   byte, so the hub can dial per-tenant seed scheduling and generator
   engines.
   v4: workers are remote endpoints — Worker_hello/Worker_welcome
   register a farm process, Shard_revoke retracts a lease, Worker_ping/
   Heartbeat_ack carry liveness both ways, Shard_assign and all
   farm-to-hub traffic carry a lease epoch (the fencing token), and
   Status reports worker liveness next to the tenant rows.
   v5: the generator-mode byte is gone (there is one program
   generator); a journal written by an older version is refused, not
   replayed.
   v6: Shard_assign carries the campaign, shard and epoch followed by
   the submitted tenant config (the worker derives the shard's seed and
   budget itself, see {!Shard.farm_config}); reset-policy code 1 (the
   retired snapshot policy) no longer decodes. *)
let version = 6

let header_bytes = 12 (* magic u32, version u16, kind u8, reserved u8, payload_len u32 *)

let max_payload = 16 * 1024 * 1024

type status_row = {
  campaign : int;
  tenant : string;
  os : string;
  finished : bool;
  shards : int;
  shards_done : int;
  executed : int;
  coverage : int;
  crashes : int;
}

type worker_row = { worker : int; name : string; alive : bool; leases : int }

type t =
  | Submit of Tenant.config
  | Accept of { campaign : int; tenant : string }
  | Reject of { tenant : string; reason : string }
  | Shard_assign of Shard.assignment
  | Corpus_push of { campaign : int; shard : int; epoch : int; progs : string list }
  | Corpus_pull of { campaign : int; shard : int; progs : string list }
  | Crash_report of { campaign : int; shard : int; epoch : int; crash : Crash.t }
  | Heartbeat of {
      campaign : int;
      shard : int;
      epoch : int;
      executed : int;
      coverage : int;
      edge_capacity : int;
      virtual_s : float;
      bitmap : string;
    }
  | Status_req
  | Status of { rows : status_row list; workers : worker_row list }
  | Cancel of { campaign : int }
  | Shard_done of {
      campaign : int;
      shard : int;
      epoch : int;
      executed : int;
      iterations : int;
      crash_events : int;
      virtual_s : float;
    }
  | Campaign_done of { campaign : int; tenant : string; digest : string }
  | Worker_hello of { name : string }
  | Worker_welcome of { worker : int; heartbeat_timeout_s : float }
  | Shard_revoke of { campaign : int; shard : int; epoch : int }
  | Worker_ping of { worker : int }
  | Heartbeat_ack of { worker : int }

let kind_code = function
  | Submit _ -> 1
  | Accept _ -> 2
  | Reject _ -> 3
  | Shard_assign _ -> 4
  | Corpus_push _ -> 5
  | Corpus_pull _ -> 6
  | Crash_report _ -> 7
  | Heartbeat _ -> 8
  | Status_req -> 9
  | Status _ -> 10
  | Cancel _ -> 11
  | Shard_done _ -> 12
  | Campaign_done _ -> 13
  | Worker_hello _ -> 14
  | Worker_welcome _ -> 15
  | Shard_revoke _ -> 16
  | Worker_ping _ -> 17
  | Heartbeat_ack _ -> 18

let farm_header = function
  | Corpus_push { campaign; shard; epoch; _ }
  | Crash_report { campaign; shard; epoch; _ }
  | Heartbeat { campaign; shard; epoch; _ }
  | Shard_done { campaign; shard; epoch; _ } ->
    Some (campaign, shard, epoch)
  | _ -> None

(* Programs cross the hub in canonical little-endian wire form
   regardless of the target's byte order — the hub is a host, not a
   board. *)
let encode_prog prog =
  Result.to_option
    (Eof_agent.Wire.encode ~endianness:Eof_hw.Arch.Little (Eof_core.Prog.to_wire prog))

let decode_prog ~spec ~table s =
  match Eof_agent.Wire.decode ~endianness:Eof_hw.Arch.Little s with
  | Error _ -> None
  | Ok wire -> Result.to_option (Eof_core.Prog.of_wire ~spec ~table wire)

let kind_name = function
  | Submit _ -> "submit"
  | Accept _ -> "accept"
  | Reject _ -> "reject"
  | Shard_assign _ -> "shard-assign"
  | Corpus_push _ -> "corpus-push"
  | Corpus_pull _ -> "corpus-pull"
  | Crash_report _ -> "crash-report"
  | Heartbeat _ -> "heartbeat"
  | Status_req -> "status-req"
  | Status _ -> "status"
  | Cancel _ -> "cancel"
  | Shard_done _ -> "shard-done"
  | Campaign_done _ -> "campaign-done"
  | Worker_hello _ -> "worker-hello"
  | Worker_welcome _ -> "worker-welcome"
  | Shard_revoke _ -> "shard-revoke"
  | Worker_ping _ -> "worker-ping"
  | Heartbeat_ack _ -> "heartbeat-ack"

type error =
  | Truncated  (** shorter than its header claims — wait for more bytes *)
  | Bad_magic
  | Bad_version of int
  | Bad_crc
  | Malformed of string

let error_to_string = function
  | Truncated -> "truncated frame"
  | Bad_magic -> "bad frame magic"
  | Bad_version v -> Printf.sprintf "unsupported protocol version %d" v
  | Bad_crc -> "frame CRC mismatch"
  | Malformed e -> Printf.sprintf "malformed payload: %s" e

(* --- little-endian primitives ------------------------------------------- *)

let put_u8 b v = Buffer.add_char b (Char.chr (v land 0xFF))

let put_u16 b v =
  if v < 0 || v > Tenant.max_u16 then invalid_arg "Protocol: u16 out of range";
  Buffer.add_char b (Char.chr (v land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xFF))

(* Only what [u32] decodes back: a word that reads as a non-negative
   OCaml int, so nothing wraps on the way through. *)
let put_u32 b v =
  if v < 0 || v > Tenant.max_u32 then invalid_arg "Protocol: u32 out of range";
  Buffer.add_int32_le b (Int32.of_int v)

let put_u64 b v = Buffer.add_int64_le b v

let put_f64 b v = Buffer.add_int64_le b (Int64.bits_of_float v)

let put_bool b v = put_u8 b (if v then 1 else 0)

let put_str b s =
  if String.length s > Tenant.max_u16 then invalid_arg "Protocol: string too long";
  put_u16 b (String.length s);
  Buffer.add_string b s

let put_bytes b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let put_list b f xs =
  put_u16 b (List.length xs);
  List.iter (f b) xs

let put_backend b = function Machine.Link -> put_u8 b 0 | Machine.Native -> put_u8 b 1

let put_reset_policy b = function
  | Campaign.Ladder -> put_u8 b 0
  | Campaign.Fresh_per_program -> put_u8 b 2

let put_schedule b = function
  | Eof_core.Corpus.Uniform -> put_u8 b 0
  | Eof_core.Corpus.Energy -> put_u8 b 1

let crash_kind_code = function
  | Crash.Kernel_panic -> 0
  | Crash.Kernel_assertion -> 1
  | Crash.Hardware_fault -> 2
  | Crash.Hang -> 3
  | Crash.Boot_failure -> 4

let monitor_code = function
  | Crash.Log_monitor -> 0
  | Crash.Exception_monitor -> 1
  | Crash.Liveness_watchdog -> 2
  | Crash.Timeout_only -> 3

exception Fail of string

type cursor = { s : string; limit : int; mutable pos : int }

let need c n = if c.pos + n > c.limit then raise (Fail "truncated payload")

let u8 c =
  need c 1;
  let v = Char.code c.s.[c.pos] in
  c.pos <- c.pos + 1;
  v

let u16 c =
  let lo = u8 c in
  let hi = u8 c in
  lo lor (hi lsl 8)

let u32 c =
  need c 4;
  let v = Int32.to_int (String.get_int32_le c.s c.pos) in
  c.pos <- c.pos + 4;
  if v < 0 then raise (Fail "u32 out of int range") else v

let u64 c =
  need c 8;
  let v = String.get_int64_le c.s c.pos in
  c.pos <- c.pos + 8;
  v

let f64 c = Int64.float_of_bits (u64 c)

let bool c = match u8 c with 0 -> false | 1 -> true | _ -> raise (Fail "bad bool")

let str c =
  let n = u16 c in
  need c n;
  let s = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  s

let bytes c =
  let n = u32 c in
  need c n;
  let s = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  s

let list c f =
  let n = u16 c in
  List.init n (fun _ -> f c)

let backend c =
  match u8 c with
  | 0 -> Machine.Link
  | 1 -> Machine.Native
  | n -> raise (Fail (Printf.sprintf "bad backend code %d" n))

let reset_policy c =
  match u8 c with
  | 0 -> Campaign.Ladder
  | 2 -> Campaign.Fresh_per_program
  | n -> raise (Fail (Printf.sprintf "bad reset policy code %d" n))

let schedule c =
  match u8 c with
  | 0 -> Eof_core.Corpus.Uniform
  | 1 -> Eof_core.Corpus.Energy
  | n -> raise (Fail (Printf.sprintf "bad schedule code %d" n))

let crash_kind c =
  match u8 c with
  | 0 -> Crash.Kernel_panic
  | 1 -> Crash.Kernel_assertion
  | 2 -> Crash.Hardware_fault
  | 3 -> Crash.Hang
  | 4 -> Crash.Boot_failure
  | n -> raise (Fail (Printf.sprintf "bad crash kind %d" n))

let monitor c =
  match u8 c with
  | 0 -> Crash.Log_monitor
  | 1 -> Crash.Exception_monitor
  | 2 -> Crash.Liveness_watchdog
  | 3 -> Crash.Timeout_only
  | n -> raise (Fail (Printf.sprintf "bad monitor code %d" n))

(* --- payload encode/decode ---------------------------------------------- *)

let put_tenant_config b (c : Tenant.config) =
  put_str b c.Tenant.tenant;
  put_str b c.Tenant.os;
  put_u64 b c.Tenant.seed;
  put_u32 b c.Tenant.iterations;
  put_u16 b c.Tenant.boards;
  put_u16 b c.Tenant.farms;
  put_u32 b c.Tenant.sync_every;
  put_backend b c.Tenant.backend;
  put_reset_policy b c.Tenant.reset_policy;
  put_schedule b c.Tenant.schedule

let tenant_config c =
  let tenant = str c in
  let os = str c in
  let seed = u64 c in
  let iterations = u32 c in
  let boards = u16 c in
  let farms = u16 c in
  let sync_every = u32 c in
  let backend = backend c in
  let reset_policy = reset_policy c in
  let schedule = schedule c in
  { Tenant.tenant; os; seed; iterations; boards; farms; sync_every; backend;
    reset_policy; schedule }

let put_crash b (cr : Crash.t) =
  put_str b cr.Crash.os;
  put_u8 b (crash_kind_code cr.Crash.kind);
  put_str b cr.Crash.operation;
  put_str b cr.Crash.scope;
  put_str b cr.Crash.message;
  put_list b put_str cr.Crash.backtrace;
  put_u8 b (monitor_code cr.Crash.detected_by);
  put_bytes b cr.Crash.program;
  put_u32 b cr.Crash.iteration

let crash c =
  let os = str c in
  let kind = crash_kind c in
  let operation = str c in
  let scope = str c in
  let message = str c in
  let backtrace = list c str in
  let detected_by = monitor c in
  let program = bytes c in
  let iteration = u32 c in
  { Crash.os; kind; operation; scope; message; backtrace; detected_by; program;
    iteration }

let put_status_row b r =
  put_u32 b r.campaign;
  put_str b r.tenant;
  put_str b r.os;
  put_bool b r.finished;
  put_u16 b r.shards;
  put_u16 b r.shards_done;
  put_u32 b r.executed;
  put_u32 b r.coverage;
  put_u32 b r.crashes

let status_row c =
  let campaign = u32 c in
  let tenant = str c in
  let os = str c in
  let finished = bool c in
  let shards = u16 c in
  let shards_done = u16 c in
  let executed = u32 c in
  let coverage = u32 c in
  let crashes = u32 c in
  { campaign; tenant; os; finished; shards; shards_done; executed; coverage; crashes }

let put_worker_row b (r : worker_row) =
  put_u32 b r.worker;
  put_str b r.name;
  put_bool b r.alive;
  put_u16 b r.leases

let worker_row c =
  let worker = u32 c in
  let name = str c in
  let alive = bool c in
  let leases = u16 c in
  { worker; name; alive; leases }

let encode_payload b = function
  | Submit cfg -> put_tenant_config b cfg
  | Accept { campaign; tenant } ->
    put_u32 b campaign;
    put_str b tenant
  | Reject { tenant; reason } ->
    put_str b tenant;
    put_str b reason
  | Shard_assign { Shard.campaign; shard; epoch; config } ->
    put_u32 b campaign;
    put_u16 b shard;
    put_u32 b epoch;
    put_tenant_config b config
  | Corpus_push { campaign; shard; epoch; progs } ->
    put_u32 b campaign;
    put_u16 b shard;
    put_u32 b epoch;
    put_list b put_bytes progs
  | Corpus_pull { campaign; shard; progs } ->
    put_u32 b campaign;
    put_u16 b shard;
    put_list b put_bytes progs
  | Crash_report { campaign; shard; epoch; crash } ->
    put_u32 b campaign;
    put_u16 b shard;
    put_u32 b epoch;
    put_crash b crash
  | Heartbeat
      { campaign; shard; epoch; executed; coverage; edge_capacity; virtual_s; bitmap }
    ->
    put_u32 b campaign;
    put_u16 b shard;
    put_u32 b epoch;
    put_u32 b executed;
    put_u32 b coverage;
    put_u32 b edge_capacity;
    put_f64 b virtual_s;
    put_bytes b bitmap
  | Status_req -> ()
  | Status { rows; workers } ->
    put_list b put_status_row rows;
    put_list b put_worker_row workers
  | Cancel { campaign } -> put_u32 b campaign
  | Shard_done { campaign; shard; epoch; executed; iterations; crash_events; virtual_s }
    ->
    put_u32 b campaign;
    put_u16 b shard;
    put_u32 b epoch;
    put_u32 b executed;
    put_u32 b iterations;
    put_u32 b crash_events;
    put_f64 b virtual_s
  | Campaign_done { campaign; tenant; digest } ->
    put_u32 b campaign;
    put_str b tenant;
    put_str b digest
  | Worker_hello { name } -> put_str b name
  | Worker_welcome { worker; heartbeat_timeout_s } ->
    put_u32 b worker;
    put_f64 b heartbeat_timeout_s
  | Shard_revoke { campaign; shard; epoch } ->
    put_u32 b campaign;
    put_u16 b shard;
    put_u32 b epoch
  | Worker_ping { worker } -> put_u32 b worker
  | Heartbeat_ack { worker } -> put_u32 b worker

let decode_payload kind c =
  match kind with
  | 1 -> Submit (tenant_config c)
  | 2 ->
    let campaign = u32 c in
    let tenant = str c in
    Accept { campaign; tenant }
  | 3 ->
    let tenant = str c in
    let reason = str c in
    Reject { tenant; reason }
  | 4 ->
    let campaign = u32 c in
    let shard = u16 c in
    let epoch = u32 c in
    let config = tenant_config c in
    Shard_assign { Shard.campaign; shard; epoch; config }
  | 5 ->
    let campaign = u32 c in
    let shard = u16 c in
    let epoch = u32 c in
    let progs = list c bytes in
    Corpus_push { campaign; shard; epoch; progs }
  | 6 ->
    let campaign = u32 c in
    let shard = u16 c in
    let progs = list c bytes in
    Corpus_pull { campaign; shard; progs }
  | 7 ->
    let campaign = u32 c in
    let shard = u16 c in
    let epoch = u32 c in
    let crash = crash c in
    Crash_report { campaign; shard; epoch; crash }
  | 8 ->
    let campaign = u32 c in
    let shard = u16 c in
    let epoch = u32 c in
    let executed = u32 c in
    let coverage = u32 c in
    let edge_capacity = u32 c in
    let virtual_s = f64 c in
    let bitmap = bytes c in
    Heartbeat
      { campaign; shard; epoch; executed; coverage; edge_capacity; virtual_s; bitmap }
  | 9 -> Status_req
  | 10 ->
    let rows = list c status_row in
    let workers = list c worker_row in
    Status { rows; workers }
  | 11 -> Cancel { campaign = u32 c }
  | 12 ->
    let campaign = u32 c in
    let shard = u16 c in
    let epoch = u32 c in
    let executed = u32 c in
    let iterations = u32 c in
    let crash_events = u32 c in
    let virtual_s = f64 c in
    Shard_done { campaign; shard; epoch; executed; iterations; crash_events; virtual_s }
  | 13 ->
    let campaign = u32 c in
    let tenant = str c in
    let digest = str c in
    Campaign_done { campaign; tenant; digest }
  | 14 -> Worker_hello { name = str c }
  | 15 ->
    let worker = u32 c in
    let heartbeat_timeout_s = f64 c in
    Worker_welcome { worker; heartbeat_timeout_s }
  | 16 ->
    let campaign = u32 c in
    let shard = u16 c in
    let epoch = u32 c in
    Shard_revoke { campaign; shard; epoch }
  | 17 -> Worker_ping { worker = u32 c }
  | 18 -> Heartbeat_ack { worker = u32 c }
  | n -> raise (Fail (Printf.sprintf "unknown message kind %d" n))

(* --- framing ------------------------------------------------------------ *)

(* frame := magic u32 | version u16 | kind u8 | reserved u8 |
            payload_len u32 | payload | crc32 u32
   The CRC covers version..payload (everything after the magic), so a
   bit flip anywhere in the negotiated content — including the length
   field — is caught; the magic itself is the resync sentinel. *)
let encode msg =
  let payload = Buffer.create 256 in
  encode_payload payload msg;
  let payload = Buffer.contents payload in
  let b = Buffer.create (header_bytes + String.length payload + 4) in
  Buffer.add_int32_le b magic;
  put_u16 b version;
  put_u8 b (kind_code msg);
  put_u8 b 0;
  put_u32 b (String.length payload);
  Buffer.add_string b payload;
  let crc =
    Eof_util.Crc32.digest_string
      (String.sub (Buffer.contents b) 4 (Buffer.length b - 4))
  in
  Buffer.add_int32_le b crc;
  Buffer.contents b

let frame_size buffered =
  if String.length buffered < header_bytes then Ok None
  else if String.get_int32_le buffered 0 <> magic then Error Bad_magic
  else begin
    let len = Int32.to_int (String.get_int32_le buffered 8) in
    if len < 0 || len > max_payload then Error (Malformed "payload length out of range")
    else Ok (Some (header_bytes + len + 4))
  end

let decode frame =
  match frame_size frame with
  | Error e -> Error e
  | Ok None -> Error Truncated
  | Ok (Some size) ->
    if String.length frame < size then Error Truncated
    else if String.length frame > size then Error (Malformed "trailing bytes after frame")
    else begin
      let stored = String.get_int32_le frame (size - 4) in
      let crc =
        Eof_util.Crc32.digest_string (String.sub frame 4 (size - 8))
      in
      if not (Int32.equal stored crc) then Error Bad_crc
      else begin
        let ver = Char.code frame.[4] lor (Char.code frame.[5] lsl 8) in
        if ver <> version then Error (Bad_version ver)
        else begin
          let kind = Char.code frame.[6] in
          let c = { s = frame; limit = size - 4; pos = header_bytes } in
          match decode_payload kind c with
          | msg ->
            if c.pos <> c.limit then Error (Malformed "payload has trailing bytes")
            else Ok msg
          | exception Fail e -> Error (Malformed e)
        end
      end
    end
