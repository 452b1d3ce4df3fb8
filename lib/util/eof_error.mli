(** The unified error pipeline: one typed failure value threaded from
    the transport up through session, machine, liveness, campaign and
    farm. Strings appear only at the reporting boundary
    ({!to_string}); everything below it carries a {!kind} plus context
    breadcrumbs, so "the link died" arrives with {e where} ("board 1:
    reflash partition app: after 3 attempts") still attached. *)

(** What went wrong, classified by the layer that can do something
    about it. *)
type kind =
  | Link_timeout  (** the exchange produced no reply at all *)
  | Link_desync of string
      (** bytes arrived but no valid frame could be decoded
          (truncation, NAK storms, post-reset garbage) *)
  | Protocol of string  (** a well-framed but malformed/unexpected reply *)
  | Remote of int  (** an explicit [Enn] from the stub *)
  | Flash of string  (** flash programming / restore failed *)
  | Missing_blob of string
      (** the partition table names a partition the image has no blob for *)
  | Agent of string  (** wire encoding / mailbox / target-side agent *)
  | Config of string  (** invalid configuration or spec *)
  | Board_dead of string
      (** the recovery escalation ladder was exhausted; the payload
          names the last rung attempted *)

type t = {
  kind : kind;
  ctx : string list;  (** breadcrumbs, innermost (most recent) first *)
}

(** {2 Constructors} *)

val timeout : t

val desync : string -> t

val protocol : string -> t

val remote : int -> t

val flash : string -> t

val missing_blob : string -> t

val agent : string -> t

val config : string -> t

val board_dead : string -> t

val with_context : string -> t -> t
(** Push a breadcrumb; outer layers annotate as the error bubbles up. *)

val to_string : t -> string
(** The reporting boundary: breadcrumbs outermost-first, then the kind,
    e.g. ["board 1: reflash partition app: debug link timeout"]. *)

val retryable : t -> bool
(** [Link_timeout] and [Link_desync]: a re-sent exchange can cure
    them. Every other kind is a deterministic answer. *)
