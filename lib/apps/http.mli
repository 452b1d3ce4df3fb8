(** HTTP/1.1 request parser and a small routed server — the
    [http_server] component of the application-level fuzzing experiment
    (Table 4 / Figure 8).

    Deep handler code only runs after a structurally valid request line
    and headers, which is why API-aware generation beats raw byte buffers
    here by roughly 2x in the paper. *)

type meth = GET | POST | PUT | DELETE | HEAD | OPTIONS

type request = {
  meth : meth;
  target : string;
  version : string;
  headers : (string * string) list;  (** lowercased names *)
  body : string;
}

type response = { status : int; reason : string; headers : (string * string) list; body : string }

val site_count : int

val parse_request : instr:Eof_rtos.Instr.t -> string -> (request, string) result

val meth_to_string : meth -> string

val header : request -> string -> string option

(** The server: fixed routes over the parser, JSON-backed where the
    paper's demo app is ([/api/echo] parses its body as JSON). *)
module Server : sig
  type t

  val create : instr:Eof_rtos.Instr.t -> json_instr:Eof_rtos.Instr.t -> t

  val handle : t -> string -> response
  (** Parse raw request bytes and dispatch; malformed input yields 400,
      unknown routes 404. *)

  val requests_served : t -> int
end
