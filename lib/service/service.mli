(** A long-lived skeleton service: the crash-tolerant dynamic farm
    ({!Algorithms.Farm_sim}) grown into a server that ingests a stream of
    jobs while it runs.

    Rank 0 is the service master (admission, bounded queueing, coalescing,
    batching, dispatch, failure detection, latency accounting); ranks
    [1..clients] are producers pacing seeded arrival processes with
    {!Machine.Comm.sleep}; the remaining ranks are workers, which may
    leave and rejoin mid-run (gracefully via {!leave_spec}, or by
    fail-stop under {!Machine.Chaos} — outstanding jobs are then re-dealt
    with at-least-once dispatch and per-key result dedup, as in the farm).

    The same program body runs on every engine through {!run}:
    deterministically on the simulator (identical seeds give bit-identical
    reports) and for real on OCaml domains or OS processes. *)

type admission =
  | Block  (** at the bound, park the submission; the producer waits for
               its ack — closed-loop backpressure *)
  | Shed  (** at the bound, reject immediately and count it loudly; the
              open-loop producer keeps arriving *)

type leave_spec = {
  after_jobs : int;  (** leave after processing this many jobs (>= 1) *)
  away : float;  (** engine-clock seconds before rejoining *)
  permanent : bool;  (** never rejoin *)
}

type config = {
  clients : int;  (** producer ranks 1..clients *)
  queue_bound : int;  (** max admitted-but-undealt jobs at the master *)
  batch : int;  (** max jobs dispatched per worker request *)
  admission : admission;
  grace : float option;
      (** failure-detector timeout: must dominate the longest batch (plus
          a round trip) and any scheduled away time. [None] disables
          detection — a worker crash then deadlocks, as in the farm. *)
  leaves : (int * leave_spec) list;  (** scheduled graceful membership *)
}

val default :
  ?clients:int ->
  ?queue_bound:int ->
  ?batch:int ->
  ?admission:admission ->
  ?grace:float ->
  ?leaves:(int * leave_spec) list ->
  unit ->
  config
(** Defaults: 1 client, bound 64, batch 4, [Block], no grace, no leaves. *)

type 'r workload = {
  arrivals : int;  (** submissions per client *)
  gap : int -> int -> float;
      (** [gap c k]: idle time client [c] (0-based) waits before its [k]-th
          submission — the arrival process, typically seeded *)
  job_of : int -> int;
      (** global submission index -> job key; submissions sharing a
          pending key coalesce into one execution *)
  run : int -> 'r;  (** job body, by key; deterministic *)
  flops : int -> int;  (** simulated cost of one job *)
}

type report = {
  submitted : int;
  accepted : int;  (** distinct jobs admitted to the queue *)
  coalesced : int;  (** submissions attached to an already-pending job *)
  rejected : int;  (** submissions shed at the bound *)
  completed : int;  (** submissions whose result was produced *)
  batches : int;
  redeals : int;  (** at-least-once re-dispatches after silence *)
  dup_results : int;  (** duplicate results dropped by key *)
  joins : int;  (** rejoins after a graceful leave *)
  leaves : int;  (** graceful leave announcements *)
  max_queue_depth : int;
  duration : float;  (** engine-clock seconds to complete all work *)
  throughput : float;  (** completed submissions per engine-clock second *)
  mean_latency : float;  (** submit-to-result seconds, exact over samples *)
  p50 : float;
  p95 : float;
  p99 : float;
  max_latency : float;
}

val run :
  's Machine.Backend.t ->
  ?chaos:Machine.Chaos.spec ->
  procs:int ->
  config ->
  'r workload ->
  report * 's
(** Run the service on the chosen engine. Latencies are engine-clock
    seconds: simulated on [Backend.sim] (cost defaults to the AP1000
    calibration; deterministic), wall-clock on [multicore] and [procs],
    where counts (submitted/accepted/completed/...) are reproducible and
    timings are not. On [procs] every rank is a forked process, a crashed
    worker is a dead PID, the master's grace timeouts plus re-dealing
    recover for real, and job results must be marshalable.
    @raise Invalid_argument on malformed configs (needs master + clients +
    at least one worker, positive bound/batch, leave ranks must be
    workers).
    @raise Failure when every worker is lost with work outstanding (the
    loud-failure contract, requires [grace]). *)

val run_multicore :
  ?domains:int ->
  ?chaos:Machine.Chaos.spec ->
  procs:int ->
  config ->
  'r workload ->
  report * Machine.Multicore.stats
(** [run (Backend.multicore ?domains ())]; the steady benchmark calls it
    by this name. *)

val report_to_json : report -> Obs.Json.t
(** Flat object, keys suffixed with units ([duration_s], [jobs_per_s],
    [p99_s], ...). *)

(** Obs integration: counters [service.submitted], [.accepted],
    [.coalesced], [.rejected], [.batches], [.redeals], [.dup_results],
    [.joins], [.leaves] and histogram [service.latency_us] are recorded
    when observability is enabled; the report's percentiles come from
    exact master-side samples either way. *)
