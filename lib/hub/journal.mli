(** Crash-safe hub journal: an append-only file of framed
    {!Protocol} messages.

    The hub appends every state-mutating message it accepts (the
    client's [Submit] plus the post-fencing farm traffic) and flushes
    after each frame, so the file is always a prefix of the hub's
    history — a hub process killed mid-write leaves at most one torn
    frame at the tail, which {!replay} tolerates by stopping at the
    first incomplete or corrupt frame.

    Frames are exactly the wire encoding ({!Protocol.encode}), so the
    journal needs no format of its own and inherits the protocol's CRC
    integrity check per record. *)

type t

val open_ : string -> (t, string) result
(** Open [path] for appending, creating it if absent. *)

val append : t -> Protocol.t -> unit
(** Append one frame and flush it to the OS. *)

val close : t -> unit

val replay : string -> (Protocol.t list, string) result
(** Read every complete, well-formed frame from the start of [path], in
    order. A truncated or corrupt tail ends the replay silently (the
    frames before it are returned); a missing file is an error, and so
    is a complete frame of another {!Protocol.version} (the journal was
    written by an incompatible hub). *)
