(** Deterministic discrete-event simulator of a distributed-memory machine.

    Programs are SPMD: the same function runs on every virtual processor,
    communicating through blocking point-to-point messages and global
    barriers. Per-processor clocks advance according to the {!Cost_model};
    the scheduler is deterministic, so simulated times are exactly
    reproducible. Deadlocks (every processor blocked with nothing in
    flight) are detected and reported as {!Fault.Deadlock}. *)

type config = {
  procs : int;  (** number of virtual processors *)
  topology : Topology.t;
  cost : Cost_model.t;
}

type ctx
(** Handle passed to each processor's program. *)

type stats = {
  makespan : float;  (** max finish time over processors (seconds) *)
  finish_times : float array;
  work_times : float array;  (** pure-compute seconds per processor *)
  total_msgs : int;
  total_bytes : int;
  barriers : int;  (** barrier phases executed *)
}

(** {1 Program-side operations} *)

val rank : ctx -> int

val work : ctx -> float -> unit
(** Charge [d] seconds of local compute. @raise Invalid_argument if negative. *)

val sleep : ctx -> float -> unit
(** Advance the local clock by [d] seconds without charging compute:
    [work_times] (and {!imbalance}) ignore slept time. For programs that
    idle deliberately — paced arrival processes, membership away-time.
    @raise Invalid_argument if negative. *)

val send : ctx -> dest:int -> ?tag:int -> ?bytes:int -> 'a -> unit
(** Non-blocking send. By default the value is marshalled (true byte size,
    deep copy). With [~bytes] the value is passed zero-copy by reference and
    charged the given size — the caller must not mutate it afterwards.
    Self-sends are rejected. *)

val recv : ctx -> src:int -> ?tag:int -> ?timeout:float -> unit -> 'a
(** Blocking receive from [src]; FIFO per (source, tag). The type is fixed
    by the call site and must match what the sender sent (the invariant all
    skeleton templates maintain).

    With [~timeout] (simulated seconds), raises {!Fault.Timeout} at
    [clock + timeout] if no matching message has arrived by then — the
    expiry is itself a deterministic simulation event, chosen only once no
    in-time delivery is possible. Per-source FIFO is never violated: a
    younger packet that would arrive in time cannot overtake an older one
    that would not. *)

val recv_any : ctx -> ?tag:int -> ?timeout:float -> unit -> int * 'a
(** Receive from any source: earliest arrival first, ties to the lowest
    source rank (a deterministic resolution of MPI's nondeterminism).
    [~timeout] as in {!recv}. *)

val barrier : ctx -> unit
(** Global barrier over all processors. *)

val note : ctx -> string -> unit
(** Record a message in the trace (used for Figure-2 style output). *)

val engine : ctx -> Engine.t
(** This processor as an {!Engine.t}: the primitives above, charging
    simulated time, plus its size, clock ([time]), cost model and
    topology. A [send_slice] is one message priced at its unboxed
    [8 * length] bytes, and the receiver gets a copy. *)

(** {1 Running} *)

val run : ?trace:Trace.t -> config -> (ctx -> unit) -> stats
(** Run the same program on every processor.
    @raise Fault.Deadlock when no processor can run, or one finished with
    undelivered messages.

    A processor whose program raises {!Fault.Crashed} fail-stops: it is
    marked finished, its undelivered inbox is discarded, and the rest of
    the machine keeps running. Any other exception aborts the run. *)

val run_each : ?trace:Trace.t -> config -> (int -> ctx -> unit) -> stats
(** Per-rank programs (rank is applied before the simulation starts). *)

val run_collect : ?trace:Trace.t -> config -> (ctx -> 'a option) -> 'a * stats
(** Like {!run}, for programs where (at least) one processor returns the
    final value — conventionally the root after a gather. When several
    do, the lowest rank's value is returned. *)

(** {1 Diagnostics} *)

val mean_work : stats -> float
val max_work : stats -> float

val imbalance : stats -> float
(** max/mean per-processor compute time; 1.0 is perfectly balanced. *)

val pp_stats : Format.formatter -> stats -> unit
