(** Hyperquicksort (paper Section 3, second example; evaluation Section 5)
    in three renderings whose outputs are identical:

    - {!sort_recursive}: the Section 3 divide-and-conquer SCL program
      (nested parallelism via split/combine, applybrdcast pivot spread,
      fetch exchange);
    - {!sort_flat}: the Section 5 flattened iterative SPMD program — the
      output of the flattening transformation;
    - {!sort}: the SPMD rendering on any engine; on [Backend.sim] it
      regenerates Table 1 and Figure 3 on the AP1000 cost model, and with
      a trace its per-stage notes regenerate Figure 2. {!sort_flatint}
      runs the same program body over flat int storage, notes included.

    Robustness beyond the paper: when a group leader is empty the pivot
    comes from the first non-empty member; an entirely empty group skips
    its exchange. *)

open Machine

val sort_recursive : ?exec:Scl.Exec.t -> dims:int -> int array -> int array
(** Sort on a [2^dims]-processor virtual hypercube (host execution).
    @raise Invalid_argument on negative [dims]. *)

val sort_flat : ?exec:Scl.Exec.t -> dims:int -> int array -> int array
(** The flattened iterative form; extensionally equal to
    {!sort_recursive}. *)

val sort :
  's Backend.t -> ?topology:Topology.t -> procs:int -> int array -> int array * 's
(** The distributed SPMD program on the chosen engine; identical output on
    every engine. [procs] must be a power of two (the exchange pattern is
    a hypercube; [topology] — default [Hypercube] — only reprices the hops
    on the simulator, e.g. when embedding the cube in a physical mesh or
    torus). On a traced [Backend.sim] run, [Trace.notes] holds the
    per-stage notes of the paper's Figure 2.
    @raise Invalid_argument unless [procs] is a power of two. *)

val sort_flatint :
  's Backend.t ->
  ?chaos:Chaos.spec ->
  procs:int ->
  int array ->
  int array * 's
(** {!sort}'s program with the keys in the unboxed int flat tier
    ([Scl.Flat.Int]) from scatter to gather: a radix local sort whose
    scratch buffer becomes the first round's merge output, zero-copy
    split views, and the blocks themselves as bulk slices for the
    scatter, exchange and gather: by reference on [multicore], copied and
    priced at 8 bytes a key on [sim], through the shared arena on
    [procs]. The input reaches the root once, copied into one of its
    workspace buffers ([Scl_sim.Spmd.run_flat ~input]; on [procs]
    through the pool's file); the caller's array is never
    modified. Every buffer comes from [Comm.workspace], so a run reuses
    the buffers the previous one used (on [procs], each pooled rank its
    own). Rank 0's gathered parts are the run's flat result
    ([Scl_sim.Spmd.run_flat]): on [procs] they come home as raw words
    through the pool's file.
    Both tiers run one program body, so output, messages, flops charges
    and Figure 2 notes are those of {!sort}; on [sim] only the priced
    byte counts, and so the times, differ. [?chaos] wraps every rank's
    engine in the fault injector ({!Scl_sim.Spmd.run}). *)

(** {2 Benchmark-pinned names}

    The steady benchmark calls these by name; each is {!sort} or
    {!sort_flatint} on one backend. *)

val sort_procs : procs:int -> int array -> int array * Procs.stats
(** [sort_flatint Backend.procs]. *)

val sort_multicore_flatint :
  ?domains:int -> procs:int -> int array -> int array * Multicore.stats
(** [sort_flatint (Backend.multicore ?domains ())]. *)
