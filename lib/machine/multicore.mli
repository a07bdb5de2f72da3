(** Multicore execution engine: run SPMD programs on real OCaml 5 domains.

    Each virtual processor is a fiber; rank [r] runs on domain [r mod D]
    (fixed assignment, ranks beyond the core count are multiplexed).
    Messages move zero-copy through per-rank mailboxes — the sender must
    not mutate a value after sending it, the same contract as the
    simulator's [~bytes] fast path.  Blocked domains spin briefly
    ([Runtime.Backoff]) and then sleep on a per-domain doorbell.

    Semantics match the simulator: sends never block, receives are FIFO
    per (source, tag), and a quiescent system (every rank blocked, no
    message in flight) raises {!Deadlock}.  [recv_any] arrival order is
    whatever the hardware produced — unlike the simulator it is not
    deterministic. *)

exception Deadlock of string

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
  ?cost:Cost_model.t ->
  ?topology:Topology.t ->
  procs:int ->
  (int -> Engine.t -> unit) ->
  stats
(** Run [program rank engine] on every rank.  [?domains] caps the real
    domains spawned (default {!default_domains}); [?cost] only populates
    the engine's cost model field ([work] is a no-op on this engine).
    Exceptions raised by rank programs are re-raised here (first one
    wins); {!Deadlock} is raised on quiescence. *)

val run :
  ?domains:int ->
  ?cost:Cost_model.t ->
  ?topology:Topology.t ->
  procs:int ->
  (Engine.t -> unit) ->
  stats

val run_collect :
  ?domains:int ->
  ?cost:Cost_model.t ->
  ?topology:Topology.t ->
  procs:int ->
  (Engine.t -> 'a option) ->
  'a * stats
(** Like {!run} for programs that produce a value at (at least) one rank;
    mirrors [Sim.run_collect]: the lowest rank's value wins. *)
