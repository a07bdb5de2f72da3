(** Multi-process execution engine: run SPMD programs on real OS
    processes over Unix-domain sockets.

    Each rank is a process [fork]ed at [run] time; every rank pair shares
    one socketpair carrying length-prefixed frames — [Marshal] payloads
    for ordinary sends, raw little-endian float64 bytes for the bulk
    slice tier (one [send_slice] stays exactly one frame, preserving the
    coalescing contract). A bulk frame is copied once per hop: a payload
    over 64 KiB is written after its header rather than copied behind
    it, and is read straight into a buffer of its final size. Ranks
    share no heap: this is the step from
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
      sender's storage;
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
    follow it. A run that breaks this rule raises {!Fork_after_domain}. *)

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
  wall : float;  (** wall-clock seconds for the whole run *)
  total_msgs : int;  (** sends across all ranks (frames, not bytes) *)
  total_recvs : int;
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
    rank. The value crosses back from the child by [Marshal], as raw
    bytes after the child's verdict record — a non-marshalable result
    raises {!Fault.Unserializable}. When several ranks produce one, the
    lowest rank's value is returned. *)
