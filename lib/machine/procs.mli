(** Multi-process execution engine: run SPMD programs on real OS
    processes over Unix-domain sockets.

    Ranks are the long-lived processes of a rank pool. The first run (or
    {!init}) forks them; every rank pair shares one socketpair carrying
    length-prefixed frames — [Marshal] payloads for ordinary sends and
    for slices that do not take the arena below ([Marshal] keeps a
    Bigarray's bits exactly; one [send_slice] stays exactly one frame,
    preserving the coalescing contract). A socket frame is copied once
    per hop: a payload over 64 KiB is written after its header rather
    than copied behind it, and is read straight into a buffer of its
    final size.

    {2 The pool}

    Each rank keeps its sockets (one per other rank, plus a control
    socket to the parent) and the arena mapping for its whole life, and
    serves one run after another. A run ships its program and result
    form to each rank it uses as one [Marshal [Closures]] image, so the
    program's captured values travel by value, marshalled once and
    copied to every rank it uses on every run (a program that captures
    1M keys ships a 5 MB image to each rank each time: pass bulk input
    through {!run_flat}'s [?input] instead). The ranks themselves see
    this process as it was when the pool was forked: a global changed
    since is not seen by them, and a descriptor opened since is not
    theirs. A rank keeps no inherited descriptor beyond stdin, stdout
    and stderr, its own sockets and the pool's staging file, and moves
    those to numbers 1023 and down, so a descriptor a program captures
    here names nothing open in a rank (an [EBADF], so {!Child_failure})
    rather than one of its own. Every rank's copy of the job image is
    written through one [select] loop, so a large image reaches the
    ranks together rather than one after another. Between runs nothing is left in the sockets: a
    rank that finishes says goodbye to every peer, behind all it owes
    that peer and with nothing after it, and reads every peer's stream
    up to its goodbye before it reports.

    A run uses ranks [0, procs) of the pool. One that needs more ranks
    than the pool has forks a larger pool, and only then retires the old
    one; a run in which any rank failed (raised, fail-stopped, crashed or
    was killed) retires the whole pool, since a replacement rank could
    not be wired to the live ones, and the next run forks a new one; so
    does a run that finds a rank of the pool dead. {!shutdown}, and the
    process's exit, retire the pool: each rank exits when its control
    socket reaches EOF, so no rank outlives this process unless it is
    stuck in a program. A run holds the pool for its whole length, so
    runs from several threads or domains take turns.

    Under {!run_flat}, [Comm.workspace] on a rank lends from that rank's
    own free list ({!Workspace}), and so do the copies of arena slices it
    receives. Its bulk data takes the pool's staging file, never a
    socket (below). A steady stream of identical jobs then forks nothing
    and, once warm, has its ranks map no fresh pages.

    {2 The staging file}

    Each pool has one file, created beside the arena (under /dev/shm,
    else in the temp directory) when the pool forks and unlinked at
    once; its ranks inherit it. This process writes {!run_flat}'s input
    into it with [Unix.write] and reads the result back with
    [Unix.read], a 64 KiB chunk at a time, and never maps it, so the
    transfer does not grow its resident set. Each rank maps the file
    itself, once per element kind, and keeps the mapping across runs; it
    maps it again only when a transfer outgrows it. Rank 0's input is a
    view of that mapping, and the producing rank blits its result parts
    into a region that starts where the input ends. The file keeps the
    size of the pool's largest transfer until the pool is retired.

    {2 The arena}

    A slice of 64 KiB or more (float64 or int) skips the socket when it
    can: the process maps one shared-memory arena before it forks its
    first pool of two or more ranks (unlinked at once, kept for the
    process's lifetime, never touched by the process itself unless it is
    a rank), each run gives every directed channel a ring in it, and the
    slice is blitted into the sender's ring while a small frame on the
    socket says where. The receiver copies it out when it parses that
    frame and returns the space with a credit frame. A slice that finds
    its ring full takes the socket instead: no send ever waits on arena
    space, and [stats.arena_msgs] counts the slices that went through
    it. Boxed payloads always take the socket.

    A run's result comes home from the producing rank after its verdict
    record: {!run_collect}'s as a [Marshal] image on its control socket,
    {!run_flat}'s through the staging file, decoded straight into the
    caller's array. Only the lowest producing rank's result is read: a
    producing rank other than 0 waits to be told it is wanted.

    Ranks share no heap: this is the step from
    "parallel library" to "distributed system", where {!Fault.Crashed}
    means a process really died.

    Semantics match the other engines: no send waits for a matching
    receive, receives are FIFO per (source, tag), [recv ?timeout] maps
    the deadline onto [Unix.select] (an hour at a time, so any finite
    timeout works), and the reserved collective tag discipline is
    untouched — [Comm] runs textually unchanged. Differences inherent
    to the medium:

    - a send returns once its whole frame is in the kernel. A frame
      larger than the socket buffer is written as the destination drains
      it, and the sender keeps reading every inbound stream meanwhile (so
      two ranks sending bulk frames to each other both progress); such a
      send waits at most until the destination next enters any engine
      call, finishes, or dies;

    - payloads, the program with everything it captures, and results
      must be marshalable: sending a closure (or a custom block without
      serializers) raises {!Fault.Unserializable} at the send site, and
      a program that captures one (a [Mutex.t], a channel) raises it
      from the runner, before any rank runs;
    - a slice received here is a fresh copy, not an alias of the
      sender's storage, whichever path it took;
    - crash detection is local, not global: a receive with no timeout
      raises {!Fault.Crashed} as soon as the awaited peer's socket hits
      EOF without a goodbye frame (rank exit, kill, [EPIPE]), and
      {!Fault.Deadlock} when the awaited peer(s) provably finished
      cleanly with nothing more to say. A cyclic wait among live ranks is not
      detected (no global quiescence view across processes) — use
      timeouts for protocols that need a failure detector.

    Fork safety (OCaml 5): [Unix.fork] refuses permanently once a second
    domain has existed — joining it does not lift the ban. A pool forked
    before then keeps serving runs afterwards, but any run that has to
    fork — the first, one that needs more ranks than the pool has, and
    the first after a failed run or {!shutdown} — raises
    {!Fork_after_domain}. A program mixing engines should therefore run
    its [Procs] work (or {!init} a pool as large as it needs) before any
    pool or multi-domain multicore run (as tools/diffcheck and
    bench/main do), or fork a dedicated process for it. A [Multicore]
    run with [~domains:1] runs on the calling domain and spawns none, so
    [Procs] runs may follow it.

    A rank may itself start a [Procs] run: its process forks a pool of
    its own for it, and maps an arena of its own, since its siblings
    are still using the one it inherited. *)

exception Child_failure of int * string
(** [Child_failure (rank, msg)]: a rank's program died with an exception
    that has no cross-process representation; [msg] is its printed form
    from the child. *)

exception Fork_after_domain
(** A run (or {!init}) had to fork ranks in a process that has created
    another domain, so OCaml refuses to [fork]. Raised before any rank
    runs: every socket of the half-built pool is closed and any rank
    already forked is killed and reaped. A pool that was serving before
    keeps serving. *)

type stats = {
  wall : float;
      (** wall-clock seconds from shipping the run to the ranks until the
          last verdict is read — which includes reading and decoding the
          result, done while the other ranks report — but not forking a
          pool, nor retiring one *)
  total_msgs : int;  (** sends across all ranks (frames, not bytes) *)
  total_recvs : int;
  arena_msgs : int;  (** of [total_msgs], the slices sent through the shared arena *)
  procs_used : int;  (** ranks that ran the program (= [procs]), pooled processes *)
  forked : int;
      (** processes this run forked: the new pool's size when it had to
          fork one, else 0 *)
  crashed : int list;
      (** ranks that fail-stopped — {!Fault.Crashed} self-raises
          ([Chaos]) and real deaths (exit, signal) alike — in rank
          order *)
  rank_minflt : int;
      (** minor page faults the ranks took in the run (each rank's
          /proc/self/stat, from its job's arrival to its verdict, and
          while it staged a flat result), summed *)
  rank_cpu : float;  (** user + system CPU seconds of the ranks over the same span, summed *)
  rank_lent : int;  (** [Comm.workspace] requests and arena copies the ranks' leases served *)
  rank_fresh : int;
      (** of them, served from fresh storage rather than the rank's free
          list: 0 for a warm {!run_flat} job like the one before *)
  job_bytes : int;
      (** size of the run's job image — the program with everything it
          captures, and its result form — written to each rank it used:
          a few hundred bytes unless the program captures bulk data *)
}

val init : procs:int -> unit
(** Make sure a pool of at least [procs] ranks is up, forking it now
    (with the arena, for two or more) if it is not.
    @raise Invalid_argument if [procs <= 0].
    @raise Fork_after_domain if it had to fork after a domain existed. *)

val shutdown : unit -> unit
(** Retire this process's pool, if it has one: close every control
    socket and reap every rank. The next run forks a new pool.
    Registered with [at_exit]. *)

val run_each :
  ?cost:Cost_model.t ->
  ?topology:Topology.t ->
  procs:int ->
  (int -> Engine.t -> unit) ->
  stats
(** Run [program rank engine] on ranks [0, procs) of the pool, each a
    process of its own. [?cost] only populates the engine's cost-model
    field ([work] is a no-op on this engine). A rank that raises
    {!Fault.Crashed} on itself (the [Chaos] contract) or dies outright
    fail-stops silently and is reported in [stats.crashed]; any other
    exception from a rank program is re-raised here. Either way the pool
    is retired, its ranks reaped, before this returns or raises.
    @raise Fault.Unserializable if the program cannot be marshalled. 

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
    ranks are still reporting, and does not read any other rank's
    value. A rank that dies before its value has arrived whole raises
    {!Fault.Crashed}.
    @raise Invalid_argument if no rank produced a result. *)

val run_flat :
  ?cost:Cost_model.t ->
  ?topology:Topology.t ->
  procs:int ->
  kind:('k, 'e) Bigarray.kind ->
  ?input:'k array ->
  (Engine.t -> ('k, 'e) Engine.slice array option) ->
  'k array * stats
(** Like {!run_collect} for a result made of flat parts: the lowest
    producing rank's parts, concatenated in order into one array. The
    rank reports the element count in its verdict, blits every part into
    the pool's staging file while this process allocates the result
    array, and then says the parts are in place; this process reads the
    words back a 64 KiB chunk at a time and decodes each chunk straight
    into the result array. Nothing is marshalled and neither side builds
    a second copy of the whole result. A rank that dies after its
    verdict announced a result, before that result is whole, raises
    {!Fault.Crashed}, never a truncated or stale array.

    [?input] reaches rank 0 as its engine's [input] ([Comm.input]): this
    process writes it into the staging file as raw native-endian words
    before it ships the run, and rank 0 sees it as a view of its own
    mapping of the file, so nothing is decoded. The view is rank 0's for
    the run: the program may sort it in place, and hands it to other
    ranks with slice sends ([Comm.scatter_slice], [send_slice]), which
    copy it. It is a slice of a mapped file, so it must not travel inside
    a boxed value: [Marshal] cannot read such a slice back. The array is
    read, never captured in the program's image nor modified. Every
    rank's [Comm.workspace], and the copies of the arena slices it
    receives, come from its own free list, which each clean run's
    buffers replace.
    @raise Invalid_argument if [kind] is neither [float64] nor [int], if
    a part's run-time kind is not [kind] (raised by that rank, so the
    usual precedence applies), or if no rank produced a result. *)
