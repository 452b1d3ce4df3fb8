module Obs = Eof_obs.Obs

(* Socket mode is the detached deployment: the hub process owns no
   farms at all. Workers are separate [eof worker] processes that
   connect to the same Unix domain socket as clients; the first frame
   on a connection classifies it ([Worker_hello] makes it a worker,
   anything else a client). The hub's liveness machinery runs on the
   wall clock here — a worker that disappears (EOF) or goes silent past
   the heartbeat deadline has its shard leases revoked and reassigned
   to surviving workers. *)

(* --- robust framed IO ---------------------------------------------------
   Shared by the server loop, the worker process and the one-shot
   clients. [Unix.read]/[write] on a socket may move fewer bytes than
   asked and may be interrupted: every primitive here retries EINTR,
   waits out EAGAIN (in case a caller handed us a non-blocking fd), and
   loops until the frame boundary — never assuming one syscall moves
   one frame. *)

let rec write_all fd s off len =
  if len > 0 then
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      ignore (Unix.select [] [ fd ] [] (-1.));
      write_all fd s off len

(* One chunk of input: [Some 0] is EOF, [None] a connection error. *)
let rec read_chunk fd bytes =
  match Unix.read fd bytes 0 (Bytes.length bytes) with
  | n -> Some n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_chunk fd bytes
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    ignore (Unix.select [ fd ] [] [] (-1.));
    read_chunk fd bytes
  | exception Unix.Unix_error _ -> None

let rec select_intr r w e t =
  match Unix.select r w e t with
  | res -> res
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> select_intr r w e t

let write_frame fd msg =
  let frame = Protocol.encode msg in
  match write_all fd frame 0 (String.length frame) with
  | () -> Ok ()
  | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)

(* Decode every complete frame in an accumulation buffer, in order,
   leaving any partial tail in place for the next read. The buffered
   bytes are copied at most once per call, and not at all while the
   first frame is still incomplete: a frame arriving in many chunks
   costs one header peek per chunk. *)
let take_frames buf =
  let total = Buffer.length buf in
  let header s pos = String.sub s pos (min Protocol.header_bytes (total - pos)) in
  match Protocol.frame_size (Buffer.sub buf 0 (min Protocol.header_bytes total)) with
  | Ok (Some size) when size <= total ->
    let buffered = Buffer.contents buf in
    let rec go pos acc =
      match Protocol.frame_size (header buffered pos) with
      | Error e -> Error (Protocol.error_to_string e)
      | Ok (Some size) when total - pos >= size ->
        (match Protocol.decode (String.sub buffered pos size) with
         | Ok msg -> go (pos + size) (msg :: acc)
         | Error e -> Error (Protocol.error_to_string e))
      | Ok _ ->
        Buffer.clear buf;
        Buffer.add_substring buf buffered pos (total - pos);
        Ok (List.rev acc)
    in
    go 0 []
  | Ok _ -> Ok []
  | Error e -> Error (Protocol.error_to_string e)

(* Block until at least one complete frame is buffered; return every
   complete frame. *)
let rec read_frames fd buf chunk =
  match take_frames buf with
  | Error _ as e -> e
  | Ok (_ :: _ as msgs) -> Ok msgs
  | Ok [] ->
    (match read_chunk fd chunk with
     | None -> Error "connection error"
     | Some 0 -> Error "connection closed by hub"
     | Some n ->
       Buffer.add_subbytes buf chunk 0 n;
       read_frames fd buf chunk)

(* --- hub server --------------------------------------------------------- *)

type role = Pending | Client | Worker_conn of int

type conn = {
  fd : Unix.file_descr;
  id : int;  (** connection id; doubles as the hub client id *)
  mutable role : role;
  buf : Buffer.t;
  mutable closed : bool;
}

let send_frame cn msg =
  if not cn.closed then begin
    let frame = Protocol.encode msg in
    try write_all cn.fd frame 0 (String.length frame)
    with Unix.Unix_error _ -> cn.closed <- true
  end

let serve ?obs ?corpus_sync ?max_campaigns ?journal ?heartbeat_timeout ~socket
    ~(resolve : string -> (Worker.target, string) result) () =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  match Hub.create ~obs ?corpus_sync ?journal ?heartbeat_timeout ~resolve () with
  | Error msg -> Error msg
  | Ok hub ->
  (match Unix.lstat socket with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink socket
  | _ -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let conns : (int, conn) Hashtbl.t = Hashtbl.create 8 in
  let worker_conns : (int, conn) Hashtbl.t = Hashtbl.create 8 in
  let next_conn = ref 0 in
  let campaigns_done = ref 0 in
  let dispatch actions =
    List.iter
      (function
        | Hub.To_worker (wid, msg) -> (
          match Hashtbl.find_opt worker_conns wid with
          | Some cn -> send_frame cn msg
          | None -> () (* dead worker: best-effort drop, as documented *))
        | Hub.To_client (id, msg) ->
          (match msg with
          | Protocol.Campaign_done _ -> incr campaigns_done
          | _ -> ());
          (match Hashtbl.find_opt conns id with
          | Some cn -> send_frame cn msg
          | None -> ()))
      actions
  in
  let route cn msg =
    let now = Unix.gettimeofday () in
    match cn.role with
    | Worker_conn wid -> dispatch (Hub.handle_worker hub ~now ~worker:wid msg)
    | Client -> dispatch (Hub.handle_client hub ~client:cn.id msg)
    | Pending -> (
      (* First frame classifies the connection. *)
      match msg with
      | Protocol.Worker_hello { name } -> (
        match Hub.hello hub ~now ~name with
        | Ok (wid, actions) ->
          cn.role <- Worker_conn wid;
          Hashtbl.replace worker_conns wid cn;
          dispatch actions
        | Error reason ->
          send_frame cn (Protocol.Reject { tenant = ""; reason });
          cn.closed <- true)
      | m ->
        cn.role <- Client;
        dispatch (Hub.handle_client hub ~client:cn.id m))
  in
  let result =
    try
      Unix.bind listener (Unix.ADDR_UNIX socket);
      Unix.listen listener 16;
      let finished () =
        match max_campaigns with
        | Some n -> !campaigns_done >= n
        | None -> false
      in
      let chunk = Bytes.create 65536 in
      while not (finished ()) do
        dispatch (Hub.tick hub ~now:(Unix.gettimeofday ()));
        let fds =
          listener
          :: Hashtbl.fold
               (fun _ cn acc -> if cn.closed then acc else cn.fd :: acc)
               conns []
        in
        let readable, _, _ = select_intr fds [] [] 0.05 in
        List.iter
          (fun fd ->
            if fd = listener then begin
              let cfd, _ = Unix.accept listener in
              let id = !next_conn in
              incr next_conn;
              Hashtbl.replace conns id
                { fd = cfd; id; role = Pending; buf = Buffer.create 256; closed = false }
            end
            else
              Hashtbl.iter
                (fun _ cn ->
                  if cn.fd = fd && not cn.closed then begin
                    match read_chunk cn.fd chunk with
                    | None | Some 0 -> cn.closed <- true
                    | Some n -> (
                      Buffer.add_subbytes cn.buf chunk 0 n;
                      match take_frames cn.buf with
                      | Error _ -> cn.closed <- true
                      | Ok msgs -> List.iter (route cn) msgs)
                  end)
                conns)
          readable;
        (* Sweep closed connections: a worker's EOF is its death
           certificate — revoke and reassign its leases right away
           rather than waiting out the heartbeat deadline. *)
        Hashtbl.iter
          (fun id cn ->
            if cn.closed then begin
              (try Unix.close cn.fd with Unix.Unix_error _ -> ());
              Hashtbl.remove conns id;
              match cn.role with
              | Worker_conn wid ->
                Hashtbl.remove worker_conns wid;
                dispatch
                  (Hub.worker_lost hub ~now:(Unix.gettimeofday ()) ~worker:wid)
              | _ -> ()
            end)
          conns
      done;
      Ok ()
    with
    | Unix.Unix_error (err, fn, _) ->
      Error (Printf.sprintf "serve: %s: %s" fn (Unix.error_message err))
  in
  Hub.close hub;
  Hashtbl.iter (fun _ cn -> try Unix.close cn.fd with Unix.Unix_error _ -> ()) conns;
  (try Unix.close listener with Unix.Unix_error _ -> ());
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  result

(* --- worker process ----------------------------------------------------- *)

let connect_retry socket ~tries =
  let rec go n =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> Ok fd
    | exception Unix.Unix_error (err, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if n <= 1 then
        Error
          (Printf.sprintf "cannot connect to %s: %s" socket
             (Unix.error_message err))
      else begin
        Unix.sleepf 0.2;
        go (n - 1)
      end
  in
  go tries

(* The [eof worker] main loop: register, then interleave stepping the
   leased farms with the socket. The worker pings at a third of the
   negotiated heartbeat deadline whenever it has sent nothing else, so
   an idle worker stays registered; hub EOF is a normal shutdown. *)
let worker ?obs ~socket ~name
    ~(resolve : string -> (Worker.target, string) result) () =
  match connect_retry socket ~tries:50 with
  | Error _ as e -> e
  | Ok fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let w = Worker.create ?obs ~name ~resolve () in
        match write_frame fd (Worker.hello w) with
        | Error e -> Error (Printf.sprintf "hello: %s" e)
        | Ok () ->
          let buf = Buffer.create 4096 in
          let chunk = Bytes.create 65536 in
          let last_sent = ref (Unix.gettimeofday ()) in
          let send msgs =
            List.iter
              (fun m ->
                let frame = Protocol.encode m in
                write_all fd frame 0 (String.length frame);
                last_sent := Unix.gettimeofday ())
              msgs
          in
          let result = ref None in
          (try
             while !result = None do
               let busy = Worker.next_cpu_s w <> None in
               let readable, _, _ =
                 select_intr [ fd ] [] [] (if busy then 0. else 0.05)
               in
               (if readable <> [] then
                  match read_chunk fd chunk with
                  | None -> result := Some (Error "hub connection error")
                  | Some 0 ->
                    (* hub closed the connection: normal shutdown *)
                    result := Some (Ok ())
                  | Some n -> (
                    Buffer.add_subbytes buf chunk 0 n;
                    match take_frames buf with
                    | Error e ->
                      result := Some (Error (Printf.sprintf "bad frame: %s" e))
                    | Ok msgs ->
                      List.iter
                        (fun m ->
                          if !result = None then
                            match Worker.handle w m with
                            | Ok replies -> send replies
                            | Error e -> result := Some (Error e))
                        msgs));
               if !result = None then begin
                 if busy then send (Worker.step w);
                 (match Worker.heartbeat_timeout_s w with
                 | Some t when Unix.gettimeofday () -. !last_sent > t /. 3. ->
                   send [ Protocol.Worker_ping { worker = Worker.id w } ]
                 | _ -> ())
               end
             done
           with Unix.Unix_error (err, fn, _) ->
             result :=
               Some (Error (Printf.sprintf "%s: %s" fn (Unix.error_message err))));
          Option.value !result ~default:(Ok ()))

(* --- one-shot clients --------------------------------------------------- *)

let with_connection socket f =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.connect fd (Unix.ADDR_UNIX socket) with
      | () -> f fd
      | exception Unix.Unix_error (err, _, _) ->
        Error
          (Printf.sprintf "cannot connect to %s: %s" socket
             (Unix.error_message err)))

let submit ~socket config =
  with_connection socket (fun fd ->
      match write_frame fd (Protocol.Submit config) with
      | Error e -> Error e
      | Ok () ->
        let buf = Buffer.create 256 and chunk = Bytes.create 65536 in
        let rec wait = function
          | [] -> Result.bind (read_frames fd buf chunk) wait
          | Protocol.Reject { reason; _ } :: _ -> Error reason
          | Protocol.Accept _ :: rest -> wait rest
          | Protocol.Campaign_done { digest; _ } :: _ -> Ok digest
          | other :: _ ->
            Error
              (Printf.sprintf "unexpected reply %s" (Protocol.kind_name other))
        in
        wait [])

let status ~socket =
  with_connection socket (fun fd ->
      match write_frame fd Protocol.Status_req with
      | Error e -> Error e
      | Ok () ->
        (match read_frames fd (Buffer.create 256) (Bytes.create 65536) with
        | Error e -> Error e
        | Ok (Protocol.Status { rows; workers } :: _) -> Ok (rows, workers)
        | Ok (other :: _) ->
          Error (Printf.sprintf "unexpected reply %s" (Protocol.kind_name other))
        | Ok [] -> Error "no reply"))
