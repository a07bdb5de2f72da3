(** Multi-process execution engine: run SPMD programs on real OS
    processes over Unix-domain sockets.

    Each rank is a process [fork]ed at [run] time; every rank pair shares
    one socketpair carrying length-prefixed frames — [Marshal] payloads
    for ordinary sends, raw little-endian float64 bytes for the bulk
    slice tier (one [send_slice] stays exactly one frame, preserving the
    coalescing contract). Ranks share no heap: this is the step from
    "parallel library" to "distributed system", where {!Fault.Crashed}
    means a process really died.

    Semantics match the other engines: sends never block (outbound bytes
    queue in user space and drain opportunistically), receives are FIFO
    per (source, tag), [recv ?timeout] maps the deadline onto
    [Unix.select], and the reserved collective tag discipline is
    untouched — [Comm] runs textually unchanged. Differences inherent to
    the medium:

    - payloads must be marshalable: sending a closure (or a custom block
      without serializers) raises {!Fault.Unserializable} at the send
      site;
    - a slice received here is a fresh copy, not an alias of the
      sender's storage;
    - crash detection is local, not global: a receive with no timeout
      raises {!Fault.Crashed} as soon as the awaited peer's socket hits
      EOF without a goodbye frame (child exit, kill, [EPIPE]), and
      {!Deadlock} when the awaited peer(s) provably finished cleanly
      with nothing more to say. A cyclic wait among live ranks is not
      detected (no global quiescence view across processes) — use
      timeouts for protocols that need a failure detector.

    Fork safety (OCaml 5): call [run*] only in a process that has NEVER
    created another domain. [Unix.fork] refuses permanently once a
    second domain has existed — joining it does not lift the ban — so a
    driver mixing engines must run its [Procs] work before any pool or
    multicore run (as tools/diffcheck and bench/main do), or fork a
    dedicated process for it. *)

exception Deadlock of string
(** A receive provably cannot be satisfied: every rank it could match
    finished cleanly (goodbye frame seen) with no matching message left.
    Raised only for locally-provable no-progress — see the module
    comment. *)

exception Child_failure of int * string
(** [Child_failure (rank, msg)]: a rank's program died with an exception
    that has no cross-process representation; [msg] is its printed form
    from the child. *)

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
    exception from a rank program is re-raised here (lowest rank wins).
    All children are reaped before return. *)

val run :
  ?cost:Cost_model.t ->
  ?topology:Topology.t ->
  procs:int ->
  (Engine.t -> unit) ->
  stats

val run_collect :
  ?cost:Cost_model.t ->
  ?topology:Topology.t ->
  procs:int ->
  (Engine.t -> 'a option) ->
  'a * stats
(** Like {!run} for programs that produce a value at (at least) one
    rank; mirrors [Sim.run_collect]. The value crosses back from the
    child by [Marshal] — a non-marshalable result raises
    {!Fault.Unserializable}. When several ranks produce one, the lowest
    rank's value is returned. *)
