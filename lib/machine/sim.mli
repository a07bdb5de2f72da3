(** Deterministic discrete-event simulator of a distributed-memory machine.

    Programs are SPMD and written against {!Engine.t}, like on every other
    engine: one function per rank, communicating through blocking
    point-to-point messages. Per-processor clocks advance according to the
    {!Cost_model}; the scheduler is deterministic, so simulated times are
    exactly reproducible. Deadlocks (every processor blocked with nothing
    in flight) are detected and reported as {!Fault.Deadlock}. *)

type stats = {
  makespan : float;  (** max finish time over processors (seconds) *)
  finish_times : float array;
  work_times : float array;  (** pure-compute seconds per processor *)
  total_msgs : int;
  total_bytes : int;
}

(** {1 Running}

    What the simulator's engine adds to the {!Engine.t} contract:
    - [work d] charges [d] simulated seconds of compute; [sleep d]
      advances the clock by [d] without charging compute, so
      [work_times] (and {!imbalance}) ignore slept time.
    - [send] marshals the value: the cost model sees its true byte size
      and the receiver gets a deep copy. A [send_slice] is one message
      priced at its unboxed [8 * length] bytes, and the receiver gets a
      copy.
    - A receive [~timeout] is in simulated seconds; the expiry at
      [clock + timeout] is itself a deterministic simulation event, chosen
      only once no in-time delivery is possible. Per-source FIFO is never
      violated: a younger packet that would arrive in time cannot overtake
      an older one that would not.
    - [recv_any] takes the earliest arrival, ties to the lowest source
      rank (a deterministic resolution of MPI's nondeterminism).
    - [time ()] is the processor's simulated clock and [note] records a
      trace annotation (used for Figure-2 style output).

    A processor whose program raises {!Fault.Crashed} fail-stops: it is
    marked finished, its undelivered inbox is discarded, and the rest of
    the machine keeps running. Any other exception aborts the run. *)

val run_each :
  ?trace:Trace.t ->
  ?cost:Cost_model.t ->
  ?topology:Topology.t ->
  procs:int ->
  (int -> Engine.t -> unit) ->
  stats
(** Run [program rank engine] on every rank. [?cost] defaults to
    {!Cost_model.ap1000}, [?topology] to {!Topology.default}; with
    [?trace], the run records its events there.
    @raise Invalid_argument if [procs <= 0] or [procs] does not fit the
    topology.
    @raise Fault.Deadlock when no processor can run, or one finished with
    undelivered messages. *)

val run_collect :
  ?trace:Trace.t ->
  ?cost:Cost_model.t ->
  ?topology:Topology.t ->
  procs:int ->
  (Engine.t -> 'a option) ->
  'a * stats
(** Like {!run_each}, for programs where (at least) one processor returns
    the final value — conventionally the root after a gather. When several
    do, the lowest rank's value is returned. *)

(** {1 Diagnostics} *)

val mean_work : stats -> float
val max_work : stats -> float

val imbalance : stats -> float
(** max/mean per-processor compute time; 1.0 is perfectly balanced. *)

val pp_stats : Format.formatter -> stats -> unit
