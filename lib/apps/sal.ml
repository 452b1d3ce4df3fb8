open Eof_rtos
module Instr = Eof_rtos.Instr

type sock = {
  domain : int;
  sock_type : int;
  protocol : int;
  mutable bound_port : int option;
  mutable listening : bool;
  mutable tx_bytes : int;
  mutable closed : bool;
}

type Kobj.payload += Socket of sock

let af_inet = 2

let af_inet6 = 10

let af_can = 29

let sock_stream = 1

let sock_dgram = 2

let sock_raw = 3

let s_socket_entry = 0

let s_socket_domain = 1

let s_socket_type = 2

let s_socket_proto = 3

let s_bind = 4

let s_bind_port = 5

let s_listen = 6

let s_send = 7

let s_send_len = 8

let s_close = 9

let s_log = 10

let site_count = 12

type t = {
  reg : Kobj.t;
  instr : Instr.t;
  console : string -> unit;
}

let create ~reg ~instr ~console = { reg; instr; console }

let socket t ~domain ~sock_type ~protocol =
  Instr.edge t.instr s_socket_entry;
  (* sal_socket reports the attempt over the kernel console before any
     validation — the exact logging call of the paper's Figure 6 chain,
     which dies on a stale serial device (bug #12). *)
  Instr.edge t.instr s_log;
  t.console
    (Printf.sprintf "sal_socket: creating socket (domain=%d type=%d proto=%d)\n" domain
       sock_type protocol);
  Instr.cmp_i t.instr s_socket_domain domain af_inet;
  if domain <> af_inet && domain <> af_inet6 && domain <> af_can then Error Kerr.einval
  else begin
    Instr.cmp_i t.instr s_socket_type sock_type sock_stream;
    if sock_type <> sock_stream && sock_type <> sock_dgram && sock_type <> sock_raw then
      Error Kerr.einval
    else begin
      Instr.cmp_i t.instr s_socket_proto protocol 0;
      if protocol < 0 || protocol > 255 then Error Kerr.einval
      else begin
        let sock =
          {
            domain;
            sock_type;
            protocol;
            bound_port = None;
            listening = false;
            tx_bytes = 0;
            closed = false;
          }
        in
        let obj = Kobj.register t.reg ~kind:"socket" ~name:"sock" (Socket sock) in
        Ok obj
      end
    end
  end

let bind t sock ~port =
  Instr.edge t.instr s_bind;
  if sock.closed then Error Kerr.einval
  else if port < 0 || port > 65535 then Error Kerr.einval
  else begin
    Instr.cmp_i t.instr s_bind_port port 1024;
    sock.bound_port <- Some port;
    Ok ()
  end

let listen t sock ~backlog =
  Instr.edge t.instr s_listen;
  if sock.closed || sock.sock_type <> sock_stream || sock.bound_port = None then
    Error Kerr.einval
  else if backlog < 0 || backlog > 128 then Error Kerr.einval
  else begin
    sock.listening <- true;
    Ok ()
  end

let sendto t sock data =
  Instr.edge t.instr s_send;
  if sock.closed then Error Kerr.einval
  else if String.length data = 0 then Error Kerr.einval
  else if String.length data > 1472 then Error Kerr.enospc
  else begin
    Instr.cmp_i t.instr s_send_len (String.length data) 0;
    sock.tx_bytes <- sock.tx_bytes + String.length data;
    Ok (String.length data)
  end

let close t sock =
  Instr.edge t.instr s_close;
  if sock.closed then Error Kerr.einval
  else begin
    sock.closed <- true;
    Ok ()
  end

let of_obj (obj : Kobj.obj) = match obj.Kobj.payload with Socket s -> Some s | _ -> None
