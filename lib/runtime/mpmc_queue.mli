(** Multi-producer multi-consumer FIFO (non-blocking). *)

type 'a t

val create : unit -> 'a t
val push : 'a t -> 'a -> unit

val try_pop : 'a t -> 'a option
(** The oldest element, or [None] when the queue is empty. *)

val is_empty : 'a t -> bool
