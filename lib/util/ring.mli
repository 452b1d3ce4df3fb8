(** Bounded FIFO ring buffer.

    Backs the UART output queue. Pushing into a full ring drops the
    *oldest* element, like a UART FIFO overrun. *)

type 'a t

val create : int -> 'a t
(** [create capacity]. @raise Invalid_argument if [capacity <= 0]. *)

val push : 'a t -> 'a -> unit
(** [push t x] enqueues [x], dropping the oldest element if full. *)

val clear : 'a t -> unit

val drain : 'a t -> 'a list
(** Pop everything, oldest first. *)
