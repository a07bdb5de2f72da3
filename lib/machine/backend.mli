(** Which engine runs an SPMD program — a value the caller picks, not a
    function name. One program body ([Comm.t -> 'a option]) runs
    unchanged on each; the type index is the engine's own statistics
    record, so a run on [sim] returns {!Sim.stats} with its makespan and
    per-rank work times, a run on [procs] returns {!Procs.stats} with its
    crashed ranks, and so on — no field is meaningless on the engine
    that filled it. *)

type _ t =
  | Sim : { cost : Cost_model.t; trace : Trace.t option } -> Sim.stats t
      (** Deterministic discrete-event simulator ({!Sim}). *)
  | Multicore : { domains : int option } -> Multicore.stats t
      (** Real OCaml 5 domains ({!Multicore}); [domains] caps the domains
          spawned. *)
  | Procs : Procs.stats t
      (** Real forked OS processes ({!Procs}); see its fork-safety note. *)

val sim : ?cost:Cost_model.t -> ?trace:Trace.t -> unit -> Sim.stats t
(** Cost model defaults to {!Cost_model.ap1000}; with [?trace], every
    rank's engine is wrapped in {!Trace.run}, beneath any [Chaos] or
    workspace wrapper, so the run records its events and notes there. *)

val multicore : ?domains:int -> unit -> Multicore.stats t
(** [?domains] defaults to {!Multicore.default_domains}. *)

val procs : Procs.stats t

val name : _ t -> string
(** ["sim"], ["multicore"] or ["procs"]. *)
