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
    is only checked against [procs]. With [?chaos], each rank's
    engine is wrapped in the fault injector ({!Machine.Chaos}) before the
    communicator is built — the program body is untouched; on [procs]
    the wrapper runs inside each child.

    On [Backend.procs], payloads and the result must be marshalable (a
    flat result through {!run_flat} is not marshalled), and
    the call is only valid in a process that has never created another
    domain — [Unix.fork] refuses permanently after the first
    [Domain.spawn], so run procs work before any pool or multi-domain
    multicore run (see {!Machine.Procs}). *)

val run_flat :
  's Backend.t ->
  ?chaos:Chaos.spec ->
  procs:int ->
  kind:('k, 'e) Bigarray.kind ->
  ?input:'k array ->
  (Comm.t -> ('k, 'e) Engine.slice array option) ->
  'k array * 's
(** {!run} for a result made of flat parts (a gathered distributed
    array, say): the lowest producing rank's parts, concatenated in
    order into one array of [kind] ([float64] or [int]).

    On [Backend.procs] the producing child blits its parts into the
    pool's staging file and this process reads them back as raw words
    ({!Machine.Procs.run_flat}): nothing is marshalled and the child
    never builds the whole array. On [multicore], once every rank has
    finished, the run's domains lay the parts out together before they
    are joined ({!Machine.Multicore.run_flat}); on [sim] they are laid
    out with {!Scl.Flat.concat} after the run. Results, the lowest-rank
    rule and error precedence are the same on every engine: a part's
    kind is checked in the rank that returns it.

    [?input] is handed to rank 0 as {!Machine.Comm.input}, already in a
    workspace buffer of the run's: on [multicore] the run's domains copy
    it in together before any rank starts; on [sim] it is copied in
    before the run; on [procs] it is written as raw words into the
    pool's staging file and rank 0 copies it from its mapping of the
    file into the buffer (it never rides inside the program's image).
    Either way the caller's array is never modified.

    {!Machine.Comm.workspace} lends from a run-scoped free list
    ({!Machine.Workspace}): buffers earlier runs used, the smallest that
    fits, each lent once per run — the calling process's list on [sim]
    and [multicore], each pooled rank's own on [procs]. When the run
    returns, its result is already laid out in a fresh array and its
    buffers go back to the free list (replacing what was there, so the
    list never holds more than one run lent); a run that raises drops
    them. Every other runner lends fresh storage: {!run}'s result may
    be a workspace slice itself.
    @raise Invalid_argument if [kind] is neither [float64] nor [int], if
    a part's run-time kind is not [kind] (a [recv_slice] annotated with
    another kind than the sender's; raised by that rank), or if no rank
    produced a result. *)
