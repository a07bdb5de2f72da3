(** Multicore execution engine: run SPMD programs on real OCaml 5 domains.

    Each virtual processor is a fiber; rank [r] runs on domain [r mod D]
    (fixed assignment, ranks beyond the core count are multiplexed).
    Domain 0 is the calling domain: a run spawns [D - 1] domains, so a
    run with [~domains:1] spawns none and leaves the process free to
    [fork] (see {!Procs}).
    Messages move zero-copy through per-rank mailboxes — the sender must
    not mutate a value after sending it.  Blocked domains spin briefly
    ([Runtime.Backoff]) and then sleep on a per-domain doorbell.

    Semantics match the simulator: sends never block, receives are FIFO
    per (source, tag), and a quiescent system (every rank blocked, no
    message in flight) raises {!Fault.Deadlock}.  [recv_any] arrival order is
    whatever the hardware produced — unlike the simulator it is not
    deterministic. *)

type stats = {
  wall : float;  (** wall-clock seconds for the whole run *)
  total_msgs : int;
  total_recvs : int;
  domains_used : int;
  sleeps : int;  (** spin-to-sleep doorbell transitions across all domains *)
}

val default_domains : int -> int
(** [min procs (Domain.recommended_domain_count ())], at least 1. *)

val run_each :
  ?domains:int ->
  ?topology:Topology.t ->
  procs:int ->
  (int -> Engine.t -> unit) ->
  stats
(** Run [program rank engine] on every rank.  [?domains] caps the real
    domains used, the caller's included (default {!default_domains});
    [?topology] is only checked against [procs].
    Exceptions raised by rank programs are re-raised here (first one
    wins); {!Fault.Deadlock} is raised on quiescence.  If a domain cannot
    be spawned, the ones already spawned are joined before the spawn's
    exception is re-raised. *)

val run_collect :
  ?domains:int ->
  ?topology:Topology.t ->
  procs:int ->
  (Engine.t -> 'a option) ->
  'a * stats
(** Like {!run_each} for programs that produce a value at (at least) one
    rank; when several do, the lowest rank's value wins, as on every
    engine. *)

val run_flat :
  ?domains:int ->
  procs:int ->
  kind:('k, 'e) Bigarray.kind ->
  ?input:'k array ->
  (Engine.t -> ('k, 'e) Engine.slice array option) ->
  'k array * stats
(** Like {!run_collect} for a result made of flat parts: the lowest
    producing rank's parts, concatenated in order into one array. The
    run's domains share both bulk ends in blocks taken off one counter.
    [?input] is copied into a buffer of the run's workspace before the
    start barrier and reaches rank 0 as its engine's [input]
    ([Comm.input]); the caller's array is never modified. Once every
    rank has finished, domain 0 allocates the result array and every
    domain lays out blocks of the parts into it before the join.

    Every rank's [Comm.workspace] lends from the calling process's free
    list ({!Workspace}); the run's buffers replace it when the run
    returns normally, and are dropped when it raises.
    @raise Invalid_argument if [kind] is neither [float64] nor [int], if
    a part's run-time kind is not [kind] (raised by that rank, so the
    usual precedence applies), or if no rank produced a result. *)
