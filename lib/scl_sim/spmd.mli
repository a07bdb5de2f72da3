(** Run SPMD skeleton programs — on the simulated machine, on real
    OCaml 5 domains, or on real forked OS processes. One runner, one
    program body; the {!Machine.Backend.t} value picks the engine and
    fixes the statistics record that comes back. *)

open Machine

val default_topology : int -> Topology.t
(** {!Machine.Topology.default}: hypercube when the processor count is a
    power of two, else complete. *)

val run :
  's Backend.t ->
  ?topology:Topology.t ->
  ?chaos:Chaos.spec ->
  procs:int ->
  (Comm.t -> 'a option) ->
  'a * 's
(** [run backend ~procs program] runs [program] on every rank with a
    world communicator and returns the value produced together with the
    engine's statistics.

    Result contract, the same on every engine: at least one rank must
    return [Some]; when several do, the {b lowest rank's} value is the
    result. Programs with no value of their own return [Some ()].
    @raise Invalid_argument if no rank produced a result.

    [?topology] defaults to {!default_topology}; on the real engines it
    only fills the engine's [topology] field. With [?chaos], each rank's
    engine is wrapped in the fault injector ({!Machine.Chaos}) before the
    communicator is built — the program body is untouched; on [procs]
    the wrapper runs inside each child.

    On [Backend.procs], payloads and the result must be marshalable, and
    the call is only valid in a process that has never created another
    domain — [Unix.fork] refuses permanently after the first
    [Domain.spawn], so run procs work before any pool or multicore run
    (see {!Machine.Procs}). *)
