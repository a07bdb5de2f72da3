(** The farm skeleton's two distributed implementation strategies: static
    block dealing ([farm f env = map (f env)]) versus a demand-driven
    master–worker task queue. Their crossover under job-size skew is the
    classic farm trade-off the bench harness reports. *)

open Machine

type 'r job_spec = {
  njobs : int;
  run : int -> 'r;  (** executed on the host; deterministic *)
  flops : int -> int;  (** simulated cost of job [i] *)
}

val static : ?cost:Cost_model.t -> procs:int -> 'r job_spec -> 'r array * Sim.stats
(** Jobs block-scattered up front; no scheduling traffic. *)

val dynamic :
  's Backend.t ->
  ?grace:float ->
  ?chaos:Chaos.spec ->
  procs:int ->
  'r job_spec ->
  'r array * 's
(** Master (rank 0) deals jobs on request; [procs - 1] workers.

    The protocol is at-least-once with job-id dedup: when fresh jobs run
    out, outstanding (dealt-but-unfinished) jobs are re-dealt to idle
    requesters — so a crashed or stalling worker cannot strand a job — and
    duplicate results are dropped (counters ["farm.retries"] /
    ["farm.reassignments"]).

    [~grace] (engine-clock seconds: simulated on [sim], wall-clock on the
    real engines) arms the master's failure detector: it must exceed the
    longest single job's duration plus a round trip. Any worker silent
    that long is presumed dead; if ALL un-released workers go silent while
    jobs remain, the farm fails loudly. Without [~grace], a worker crash
    leaves the master blocked (ending in {!Machine.Fault.Deadlock}).
    [~chaos] wraps every rank's engine in the fault injector.

    On [multicore] the workers are genuinely concurrent and the request
    interleaving at the master is nondeterministic, with the same indexed
    results. On [procs] a worker crash is a dead PID, healed by re-dealing
    end to end; job bodies and results must be marshalable.
    @raise Invalid_argument if [procs < 2]. *)

val dynamic_program : ?grace:float -> 'r job_spec -> Comm.t -> 'r array option
(** The dynamic farm's SPMD body itself (rank 0 = master, others =
    workers), for embedding in a larger program via [Spmd.run] — e.g.
    running the farm alongside ranks that deliberately misbehave in
    fault-injection tests. Rank 0 returns [Some results]; workers return
    [None]. {!dynamic} is [Spmd.run] over this body. *)

val skewed_spec : njobs:int -> skew:int -> int job_spec
(** A job mix with a few [skew]-times-heavier jobs among light ones — the
    distribution that defeats static dealing. *)
