(** Multi-process execution engine: run SPMD programs on real OS
    processes over Unix-domain sockets.

    Each rank is a process [fork]ed at [run] time; every rank pair shares
    one socketpair carrying length-prefixed frames — [Marshal] payloads
    for ordinary sends and for slices that do not take the arena below
    ([Marshal] keeps a Bigarray's bits exactly; one [send_slice] stays
    exactly one frame, preserving the coalescing contract). A socket
    frame is copied once per hop: a payload over
    64 KiB is written after its header rather than copied behind it, and
    is read straight into a buffer of its final size.

    A slice of 64 KiB or more (float64 or int) skips the socket when it
    can: the process maps one shared-memory arena before its first fork
    (unlinked at once, kept for the process's lifetime, never touched by
    the process itself unless it is a rank), each run gives every
    directed channel a ring in it, and the slice is blitted into the
    sender's ring while a small frame on the socket says where. The
    receiver copies it out into a fresh Bigarray when it parses that
    frame and returns the space with a credit frame. A slice that finds
    its ring full takes the socket instead: no send ever waits on arena
    space, and [stats.arena_msgs] counts the slices that went through
    it. Boxed payloads always take the socket.

    A run's result comes home on the producing child's own verdict
    socket, after its verdict record: {!run_collect}'s as a [Marshal]
    image, {!run_flat}'s as raw little-endian words streamed a 64 KiB
    chunk at a time and decoded straight into the caller's array. Only
    the lowest producing rank's result is read.

    Ranks share no heap: this is the step from
    "parallel library" to "distributed system", where {!Fault.Crashed}
    means a process really died.

    Semantics match the other engines: no send waits for a matching
    receive, receives are FIFO per (source, tag), [recv ?timeout] maps
    the deadline onto [Unix.select], and the reserved collective tag
    discipline is untouched — [Comm] runs textually unchanged.
    Differences inherent to the medium:

    - a send returns once its whole frame is in the kernel. A frame
      larger than the socket buffer is written as the destination drains
      it, and the sender keeps reading every inbound stream meanwhile (so
      two ranks sending bulk frames to each other both progress); such a
      send waits at most until the destination next enters any engine
      call, finishes, or dies;

    - payloads must be marshalable: sending a closure (or a custom block
      without serializers) raises {!Fault.Unserializable} at the send
      site;
    - a slice received here is a fresh copy, not an alias of the
      sender's storage, whichever path it took;
    - crash detection is local, not global: a receive with no timeout
      raises {!Fault.Crashed} as soon as the awaited peer's socket hits
      EOF without a goodbye frame (child exit, kill, [EPIPE]), and
      {!Fault.Deadlock} when the awaited peer(s) provably finished
      cleanly with nothing more to say. A cyclic wait among live ranks is not
      detected (no global quiescence view across processes) — use
      timeouts for protocols that need a failure detector.

    Fork safety (OCaml 5): call [run*] only in a process that has NEVER
    created another domain. [Unix.fork] refuses permanently once a
    second domain has existed — joining it does not lift the ban — so a
    driver mixing engines must run its [Procs] work before any pool or
    multi-domain multicore run (as tools/diffcheck and bench/main do), or
    fork a dedicated process for it. A [Multicore] run with [~domains:1]
    runs on the calling domain and spawns none, so [Procs] runs may
    follow it. A run that breaks this rule raises {!Fork_after_domain}.

    A rank may itself start a [Procs] run: its process maps an arena of
    its own for it, since its siblings are still using the one it
    inherited. *)

exception Child_failure of int * string
(** [Child_failure (rank, msg)]: a rank's program died with an exception
    that has no cross-process representation; [msg] is its printed form
    from the child. *)

exception Fork_after_domain
(** [run*] was called in a process that has created another domain, so
    OCaml refuses to [fork]. Raised before any rank runs: every socket
    of the half-built run is closed and any child already forked is
    killed and reaped. *)

type stats = {
  wall : float;
      (** wall-clock seconds from just before the first fork until every
          child is reaped — which includes reading and decoding the
          result, done while the other children exit *)
  total_msgs : int;  (** sends across all ranks (frames, not bytes) *)
  total_recvs : int;
  arena_msgs : int;  (** of [total_msgs], the slices sent through the shared arena *)
  procs_used : int;  (** OS processes forked (= [procs]) *)
  crashed : int list;
      (** ranks that fail-stopped — {!Fault.Crashed} self-raises
          ([Chaos]) and real deaths (exit, signal) alike — in rank
          order *)
}

val run_each :
  ?cost:Cost_model.t ->
  ?topology:Topology.t ->
  procs:int ->
  (int -> Engine.t -> unit) ->
  stats
(** Run [program rank engine] on every rank, each in its own forked
    process. [?cost] only populates the engine's cost-model field
    ([work] is a no-op on this engine). A rank that raises
    {!Fault.Crashed} on itself (the [Chaos] contract) or dies outright
    fail-stops silently and is reported in [stats.crashed]; any other
    exception from a rank program is re-raised here. All children are
    reaped before return.

    Precedence when several ranks fail: the lowest failing rank's
    exception wins, except when it is [Fault.Crashed q] and rank [q]
    itself failed with an exception: then [q]'s exception is taken
    instead, and so on along the chain. A rank that dies with an error
    closes its sockets without a goodbye, so every rank blocked on it
    sees a crash; following the chain re-raises the root cause, as sim
    and multicore do. [Fault.Crashed q] stays the result only when [q]
    really died or fail-stopped. An exception without a cross-process
    representation arrives as {!Child_failure} [(rank, printed form)]. *)

val run_collect :
  ?cost:Cost_model.t ->
  ?topology:Topology.t ->
  procs:int ->
  (Engine.t -> 'a option) ->
  'a * stats
(** Like {!run_each} for programs that produce a value at (at least) one
    rank. When several ranks produce one, the lowest rank's value is
    returned. It crosses back from that child by [Marshal]: the child
    marshals it inside the rank (a non-marshalable result raises
    {!Fault.Unserializable}) and writes the bytes after its verdict
    record; the parent decodes them as they arrive, while the other
    children are still exiting, and does not read any other rank's
    value. A child that dies before its value has arrived whole raises
    {!Fault.Crashed}. Every child is reaped before this returns or
    raises.
    @raise Invalid_argument if no rank produced a result. *)

val run_flat :
  ?cost:Cost_model.t ->
  ?topology:Topology.t ->
  procs:int ->
  kind:('k, 'e) Bigarray.kind ->
  (Engine.t -> ('k, 'e) Engine.slice array option) ->
  'k array * stats
(** Like {!run_collect} for a result made of flat parts: the lowest
    producing rank's parts, concatenated in order into one array. The
    child writes the element count and then every part's elements as raw
    little-endian words, through one reused 64 KiB buffer; the parent
    decodes each chunk straight into the result array. Nothing is
    marshalled and neither side builds a second copy of the whole result.
    A child that dies mid-stream raises {!Fault.Crashed}, never a
    truncated array.
    @raise Invalid_argument if [kind] is neither [float64] nor [int], if
    a part's run-time kind is not [kind] (raised by that rank, so the
    usual precedence applies), or if no rank produced a result. *)
