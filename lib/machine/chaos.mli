(** Deterministic, seeded fault injection as an {!Engine.t} wrapper.

    Chaos perturbs an SPMD program's communication without touching its
    code: sends may be held back and released later (delay/reordering
    within the documented per-(src,tag) FIFO relaxation), ranks may pay a
    straggler tax before every communication operation, and a rank may
    fail-stop ({!Fault.Crashed}) at a scheduled point.  Every decision is
    a pure function of (spec, rank, that rank's own operation count) via a
    per-rank splittable PRNG stream — so a perturbed simulator run is
    reproducible bit-for-bit from its seed, and on the multicore engine
    the injected faults (though not the real-time interleaving) replay
    exactly.

    What survives what (see README, "Fault model"): collectives are
    value-identical under any crash-free schedule; the dynamic farm
    additionally completes under a single worker crash. *)

type spec = {
  seed : int;  (** master seed; each rank draws from [nth_child seed rank] *)
  delay_prob : float;  (** probability in [0,1] that a send is held back *)
  max_hold : int;
      (** a held send is released after 1..max_hold further communication
          operations of its sender (or at the next blocking receive /
          program end, whichever comes first) *)
  stalls : (int * float) list;
      (** per-rank straggler tax, paid before every communication
          operation via [Engine.sleep]: simulated seconds on the
          simulator, a fiber-aware park on the real engines (ranks
          sharing the straggler's OS thread keep running) *)
  crashes : (int * int) list;
      (** [(rank, n)]: rank fail-stops just before its [n]-th (1-based)
          communication operation; held sends are lost with it *)
  crashes_at : (int * float) list;
      (** [(rank, t)]: rank fail-stops at its first communication operation
          at-or-after engine-clock time [t] (simulated seconds on the
          simulator, wall seconds on the multicore engine). Membership
          churn for long-lived services: "this worker dies two seconds in",
          independent of how many messages it handled first. A rank that
          stops communicating never observes its scheduled time. *)
}

val none : spec
(** The zero-fault schedule. Wrapping with it still routes every operation
    through the wrapper (that's what the overhead bench measures) but
    injects nothing: simulated runs are bit-identical to unwrapped runs. *)

val delays : ?seed:int -> ?prob:float -> ?max_hold:int -> unit -> spec
(** Delay/reorder-only schedule (defaults: seed 1, prob 0.25, max_hold 3). *)

val run : spec -> (Engine.t -> 'a) -> Engine.t -> 'a
(** [run spec program eng] runs [program] on [eng] wrapped by [spec],
    then releases any still-held sends (skipped if the rank crashed; a
    no-op for most programs, which end in receives/collectives that
    already flushed). Counters: ["chaos.faults_injected"] counts every
    hold, stall and crash.
    @raise Invalid_argument on malformed specs (probability outside
    [0,1], non-positive hold/crash indices, negative stalls, negative
    crash times; a NaN probability, stall or time is refused too). *)
