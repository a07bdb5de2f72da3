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
      priced at its unboxed [Bigarray.Array1.size_in_bytes] (8 bytes an
      element, float64 or int), and the receiver gets a copy taken at
      the send.
    - A receive [~timeout] is in simulated seconds; the expiry at
      [clock + timeout] is itself a deterministic simulation event, chosen
      only once no in-time delivery is possible. Per-source FIFO is never
      violated: a younger packet that would arrive in time cannot overtake
      an older one that would not.
    - [recv_any] takes the earliest arrival among each source's oldest
      match, ties to the older send (a deterministic resolution of MPI's
      nondeterminism).
    - [time ()] is the processor's simulated clock.

    A processor whose program raises {!Fault.Crashed} fail-stops: it is
    marked finished, its undelivered inbox is discarded, and the rest of
    the machine keeps running. Any other exception aborts the run. *)

val run_collect :
  ?cost:Cost_model.t ->
  ?topology:Topology.t ->
  procs:int ->
  (Engine.t -> 'a option) ->
  'a * stats
(** Run [program engine] on every rank. At least one rank returns the
    final value (conventionally the root after a gather; a program with
    no value of its own returns [Some ()]); when several do, the lowest
    rank's value is returned. [?cost] defaults to {!Cost_model.ap1000},
    [?topology] to {!Topology.default}.
    @raise Invalid_argument if [procs <= 0], if [procs] does not fit the
    topology, or if no rank produced a result.
    @raise Fault.Deadlock when no processor can run, or one finished with
    undelivered messages. *)

(** {1 Diagnostics} *)

val mean_work : stats -> float
val max_work : stats -> float

val imbalance : stats -> float
(** max/mean per-processor compute time; 1.0 is perfectly balanced. *)

val pp_stats : Format.formatter -> stats -> unit
