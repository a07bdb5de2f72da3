(** A rank's unreceived messages, and MPI's matching rule over them.

    Every engine keeps its messages here: the simulator its priced
    packets, the multicore fabric its by-reference payloads (one box its
    senders push into, one its receiver matches against), the procs
    engine its parsed frames. What the mailbox owns is the rule: messages
    stay in push order, and a receive takes the oldest one matching
    [(src | any, tag | any)] — FIFO per (source, tag), the non-overtaking
    rule, with any-source and any-tag receives. What is eligible beyond
    that (the simulator's arrival times) is the engine's.

    A pattern is plain ints: [src = -1] matches any source, and
    [~any_tag:true] any tag ([tag] is then ignored). Positions count
    from the oldest message, 0; one is valid until the box next changes.
    [push], [find], [take] and [transfer] allocate nothing in steady
    state (storage grows by doubling and is kept). Not thread-safe: a
    box shared between threads is the caller's to lock. *)

type 'a t

val create : 'a -> 'a t
(** An empty box. The value fills unused slots and is never returned: a
    constant holding nothing (not a float, which would make the payload
    array a float array). *)

val length : 'a t -> int

val push : 'a t -> src:int -> tag:int -> 'a -> unit
(** Add a message as the newest. *)

val find : 'a t -> src:int -> tag:int -> any_tag:bool -> int
(** Position of the oldest message matching the pattern, or [-1]. *)

val src : 'a t -> int -> int
(** The source of the message at a position. *)

val payload : 'a t -> int -> 'a
(** The payload of the message at a position, left in the box. *)

val take : 'a t -> int -> 'a
(** Remove the message at a position and return its payload; the others
    keep their order. *)

val iter_heads : 'a t -> src:int -> tag:int -> any_tag:bool -> (int -> unit) -> unit
(** [iter_heads t ~src ~tag ~any_tag f] calls [f] on the position of the
    oldest match from each source, oldest first: the messages a receive
    may take without overtaking an older one on its channel. *)

val transfer : 'a t -> into:'a t -> int
(** Move every message to the newest end of [into], in order, leaving
    the box empty; returns how many moved. *)

val clear : 'a t -> unit
(** Drop every message, releasing the payloads. *)

val check_undelivered : ?skip:(int -> bool) -> 'a t -> rank:int -> unit
(** A clean finish's check on [rank]'s box: {!Engine.check_undelivered}
    over the messages whose source [skip] (none by default) does not
    name. *)
