(** Socket abstraction layer (SAL), the networking entry point of the
    RT-Thread-style personalities.

    Successful socket creation logs through the kernel console — the
    exact call path of the paper's case study (Figure 6): [socket()] ->
    [sal_socket()] -> [rt_kprintf()] -> serial write. The console sink is
    injected by the personality so that a stale serial device turns a
    perfectly valid [socket()] call into bug #12. *)

type sock = private {
  domain : int;
  sock_type : int;
  protocol : int;
  mutable bound_port : int option;
  mutable listening : bool;
  mutable tx_bytes : int;
  mutable closed : bool;
}

type Eof_rtos.Kobj.payload += Socket of sock

val site_count : int

type t

val create :
  reg:Eof_rtos.Kobj.t -> instr:Eof_rtos.Instr.t -> console:(string -> unit) -> t

val socket :
  t -> domain:int -> sock_type:int -> protocol:int -> (Eof_rtos.Kobj.obj, int64) result
(** Validates the triple, registers the socket, logs creation via the
    console sink. *)

val bind : t -> sock -> port:int -> (unit, int64) result

val listen : t -> sock -> backlog:int -> (unit, int64) result
(** Only stream sockets that are bound may listen. *)

val sendto : t -> sock -> string -> (int, int64) result
(** Datagram/stream payload transmit; [Kerr.einval] on closed sockets or
    empty payloads, [Kerr.enospc] over 1472 bytes (MTU). *)

val close : t -> sock -> (unit, int64) result

val of_obj : Eof_rtos.Kobj.obj -> sock option
