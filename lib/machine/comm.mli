(** MPI-style communicators and collectives over an execution engine.

    All collectives are implemented with point-to-point messages (binomial
    trees, dissemination, Hillis–Steele) against {!Engine.t}, so the same
    program runs on the simulator (where cost reflects the topology and
    cost model) and on the multicore engine (real domains).  Every member
    of a communicator must call each collective in the same order (SPMD
    discipline); internal tags make adjacent collectives immune to
    overtaking.

    Every communicator has a context id, carried in every tag it builds,
    point-to-point tags included — MPI's rule: a message sent on one
    communicator is only ever received on the same communicator, so
    members may interleave a parent's and a child's calls in any order
    each communicator allows. The world is context 0; {!split} derives a
    child's from the parent's context and the number of splits the parent
    made before, with no extra message. *)

type t
(** A communicator: an ordered group of processors. *)

val world : Engine.t -> t
(** All processors, ranked by global rank. *)

val of_ranks : Engine.t -> context:int -> int array -> t
(** Communicator over the given global ranks (in the given order), in
    context [context]. The caller must be a member. Every member must
    construct it consistently, and no other communicator that shares a
    member with it may use the same context while it is in use ({!world}
    has 0), or the two take each other's messages.
    @raise Invalid_argument if [context] is outside [\[0, Engine.max_context)]. *)

val split : t -> color:int -> key:int -> t
(** Collective: partition into sub-communicators by [color]; members are
    ordered by [key] (ties by old rank), like [MPI_Comm_split].

    The children's context id is the parent's, extended by the Elias
    gamma code of [k + 1], [k] being the number of splits the parent made
    before this one: that costs [2 floor(log2 (k + 1)) + 1] bits, and the
    splits along a chain from the world may spend 31 bits in all (31
    nested first splits, as a hyperquicksort on 2^31 ranks makes; 10
    nested splits that are each a communicator's first, second or
    third). Within that bound two communicators that share a member
    never share a context.
    @raise Invalid_argument when a split would exceed it, before any
    message is sent. *)

val rank : t -> int
(** This processor's rank within the communicator. *)

val size : t -> int

val engine : t -> Engine.t
(** The underlying execution engine. *)

(** {1 Engine conveniences} *)

val work : t -> float -> unit
(** Charge compute seconds (simulated time on the simulator, no-op on the
    multicore engine). *)

val work_flops : t -> int -> unit
(** Charge [n] floating-point operations via the engine's cost model. *)

val sleep : t -> float -> unit
(** Idle for [d] engine-clock seconds without charging compute: the
    simulated clock advances (outside [work_times]); on the multicore
    engine the rank parks while other ranks keep running. For paced
    arrival processes and membership away-time. *)

val cost : t -> Cost_model.t

val time : t -> float
(** The engine's clock: simulated seconds or wall seconds. *)

val note : t -> string -> unit
(** Trace annotation: recorded when the rank's engine is wrapped in
    {!Trace.run} (a [Backend.sim ~trace] run), a no-op otherwise. *)

val workspace : t -> ('k, 'e) Bigarray.kind -> int -> ('k, 'e) Engine.slice
(** [workspace t kind n]: a length-[n] buffer of [kind] for this rank's
    scratch work or payloads, contents unspecified, valid until the run
    returns — never kept, returned or stashed past it. Under
    [Scl_sim.Spmd.run_flat] it comes from a free list of the buffers
    earlier runs borrowed ({!Workspace}: the calling process's on [sim]
    and [multicore], each pooled rank's own on [procs]), so a steady
    stream of identical runs allocates no fresh pages; under every other
    runner it is fresh storage. A
    buffer is lent at most once per run, so sending it by reference is
    as safe as sending any other slice. Counts [workspace.lent] (and
    {!Workspace.lend} [workspace.reused]) when [Obs] is enabled, as a
    [run_flat] runner counts the buffer it copies the input into.
    @raise Invalid_argument if [kind] is neither [float64] nor [int], or
    [n < 0]. *)

val input : t -> ('k, 'e) Bigarray.kind -> ('k, 'e) Engine.slice option
(** [input t kind]: the input array given to [Scl_sim.Spmd.run_flat
    ~input], at rank 0, already copied into one of that rank's workspace
    buffers (so the caller's array is never touched by the program);
    [None] on other ranks and in runs given no input.
    @raise Invalid_argument if [kind] is neither [float64] nor [int], or
    is not the input's kind. *)

(** {1 Collectives} *)

val barrier : t -> unit
(** Dissemination barrier over the group: ceil(log2 m) rounds of ordinary
    messages, priced like any other traffic on the simulator. *)

val bcast : t -> root:int -> 'a option -> 'a
(** Binomial broadcast; the root passes [Some v], others [None]. *)

val reduce : t -> root:int -> ('a -> 'a -> 'a) -> 'a -> 'a option
(** Binomial reduction; [op] must be associative (commutativity is NOT
    required). Partial results always combine in true communicator-rank
    order [v0·v1·…·v(m-1)], whatever the [root]; for [root <> 0] the result
    takes one extra hop from member 0 to the root. Returns [Some] at the
    root. *)

val allreduce : t -> ('a -> 'a -> 'a) -> 'a -> 'a

val gather : t -> root:int -> 'a -> 'a array option
(** Binomial gather, result indexed by communicator rank. *)

val allgather : t -> 'a -> 'a array

val scatter : t -> root:int -> 'a array option -> 'a
(** Binomial scatter of an array of length [size t] held at the root. *)

val alltoall : t -> 'a array -> 'a array
(** [out.(j)] is the element [a.(me)] of member [j]. *)

val scan : t -> ('a -> 'a -> 'a) -> 'a -> 'a
(** Inclusive prefix over ranks ([op] associative). *)

(** {1 Point-to-point within the group}

    [?tag] selects a user tag (in a reserved space disjoint from collective
    internals); omitted means the untagged p2p channel.  Receives match
    FIFO per (source, tag), and only this communicator's messages: the
    same user tag on another communicator is another channel. *)

val send : t -> dest:int -> ?tag:int -> 'a -> unit

val recv : t -> src:int -> ?tag:int -> ?timeout:float -> unit -> 'a
(** With [?timeout] (engine-clock seconds), raises {!Fault.Timeout} if no
    matching message is available before the deadline; the run continues
    and the caller may retry. *)

val recv_any : t -> ?tag:int -> ?timeout:float -> unit -> int * 'a
(** Receive from any member; returns (communicator rank, value). Matches
    only p2p traffic (with the given user tag, or untagged if omitted) —
    never collective internals. Deterministic only on the simulator.
    [?timeout] as in {!recv}. *)

val exchange : t -> partner:int -> 'a -> 'a
(** Symmetric untagged send-then-receive with [partner]; deadlock-free. *)

(** {1 Bulk slice tier}

    Typed unboxed ({!Engine.slice}: [float64] or [int] elements)
    counterparts of the point-to-point operations and the data-movement
    collectives. Each hop moves its whole payload as exactly one message,
    however long the slice — the coalescing contract halo exchange
    builds on. What a receiver holds depends on the engine:
    - multicore: payloads travel zero-copy, so received slices alias the
      sender's storage (treat them as read-only, and do not mutate a sent
      window until a synchronising exchange);
    - sim: each hop is priced as one message of
      [Bigarray.Array1.size_in_bytes] payload bytes (8 an element, either
      kind) and delivers a copy taken at the send;
    - procs: each hop delivers a fresh copy, through the shared-memory
      arena for windows of 64 KiB and more when the channel's ring has
      room, as a [Marshal] frame on the socket otherwise.

    The receiver's type fixes the kind and must match the sender's:
    annotate it where a received slice feeds a flat loop. Slice and boxed
    traffic on the same (source, tag) channel keep their relative order,
    but one channel must carry one payload type at a time. *)

val send_slice : t -> dest:int -> ?tag:int -> ('k, 'e) Engine.slice -> unit

val recv_slice : t -> src:int -> ?tag:int -> ?timeout:float -> unit -> ('k, 'e) Engine.slice
(** FIFO per (source, tag); [?timeout] as in {!recv}. *)

val scatter_slice : t -> root:int -> ('k, 'e) Engine.slice option -> ('k, 'e) Engine.slice
(** Block-decompose the root's slice over the group: member [k] of [m]
    receives elements [[k*q + min k r, …)] where [q = n/m], [r = n mod m]
    (the same geometry as the distributed vectors). Flat tree: exactly one
    direct message per non-root member; on the multicore engine each block
    is a zero-copy sub-view of the root's storage. *)

val gather_slices :
  t -> root:int -> ('k, 'e) Engine.slice -> ('k, 'e) Engine.slice array option
(** Inverse of {!scatter_slice} without the concatenation: the root gets
    every member's slice, indexed by communicator rank (its own is
    [local] itself; lengths may vary). One direct message per non-root
    member; on the multicore engine the parts alias the senders'
    storage. *)

val gather_slice : t -> root:int -> ('k, 'e) Engine.slice -> ('k, 'e) Engine.slice option
(** {!gather_slices}, concatenated in rank order at the root into fresh
    storage. *)

(** {1 Internals exposed for tests} *)

val unsafe_set_seq : t -> int -> unit
(** Test-only: jump the collective sequence counter (e.g. to probe the
    2^24 overflow boundary without issuing that many collectives). All
    members must set the same value, like any collective-order obligation.
    @raise Invalid_argument if negative. *)
