(** Socket transport for the hub: a Unix-domain-socket server whose
    workers are {e separate processes}.

    One socket serves both populations: the first frame on a connection
    classifies it — [Worker_hello] makes it a worker endpoint (the hub
    leases shards to it), anything else a client (Submit / Status_req /
    Cancel). The hub state machine is exactly {!Hub}; this module is
    its wall-clock transport: the serve loop ticks the hub's heartbeat
    deadlines between selects, and a worker connection's EOF revokes
    its leases immediately.

    All framing IO here survives short reads, short writes, EINTR and
    EAGAIN — a frame boundary never assumes a syscall boundary. *)

val take_frames : Buffer.t -> (Protocol.t list, string) result
(** Decode every complete frame accumulated in the buffer, in order,
    and leave any partial tail in it for the next read. Copies the
    buffered bytes at most once per call (not at all while the first
    frame is incomplete). The server loop, the worker loop and the
    one-shot clients all frame their input through it. [Error] on a
    bad header or an undecodable frame. *)

val serve :
  ?obs:Eof_obs.Obs.t ->
  ?corpus_sync:bool ->
  ?max_campaigns:int ->
  ?journal:string ->
  ?heartbeat_timeout:float ->
  socket:string ->
  resolve:(string -> (Worker.target, string) result) ->
  unit ->
  (unit, string) result
(** Bind [socket] (an existing stale socket file is replaced), serve
    until [max_campaigns] campaigns have completed ([None] = forever),
    then clean up the socket file. The hub hosts no farms: campaigns
    only progress while at least one {!worker} process is connected.
    [journal]/[heartbeat_timeout] are passed to {!Hub.create} — with a
    journal, a restarted server resumes its campaigns. *)

val worker :
  ?obs:Eof_obs.Obs.t ->
  socket:string ->
  name:string ->
  resolve:(string -> (Worker.target, string) result) ->
  unit ->
  (unit, string) result
(** The [eof worker] process body: connect (retrying while the hub
    comes up), register under [name], then serve leases until the hub
    closes the connection (normal shutdown, [Ok ()]). Pings at a third
    of the negotiated heartbeat deadline when otherwise silent. *)

val submit : socket:string -> Tenant.config -> (string, string) result
(** Connect, submit, block until the campaign finishes; returns the
    tenant's campaign digest, or the rejection/transport error. *)

val status :
  socket:string ->
  (Protocol.status_row list * Protocol.worker_row list, string) result
(** One status round trip: per-campaign progress rows plus the worker
    registry (liveness and lease counts). *)
