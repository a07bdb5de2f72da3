(* The one runner for SPMD skeleton programs: the same
   [Comm.t -> 'a option] program body runs on whichever engine the
   [Backend.t] value names, and the engine's own stats record comes
   back. *)

open Machine

let default_topology = Topology.default

(* Observability: the simulator itself records messages/bytes/barriers and
   the simulated makespan (see Machine.Sim), and the multicore fabric its
   own mc.* counters.  Here we add the host side of the "simulated vs wall"
   comparison: a span for the wall-clock cost of running each SPMD program,
   and the aggregate simulated seconds, both under spmd.* names. *)
let obs_runs = Obs.Counter.make "spmd.runs"
let obs_mc_runs = Obs.Counter.make "spmd.multicore_runs"
let obs_procs_runs = Obs.Counter.make "spmd.procs_runs"
let obs_wall = Obs.Span.make "spmd.run_wall"
let obs_sim_us = Obs.Histogram.make ~unit_:"us" "spmd.sim_makespan_us"

(* With [?chaos], each rank's engine is wrapped in the fault injector
   before the communicator is built — the program body is untouched, which
   is the whole point (coordination-layer faults, not user-code faults). *)
let with_chaos chaos program eng =
  match chaos with
  | None -> program (Comm.world eng)
  | Some spec -> Chaos.run spec (fun e -> program (Comm.world e)) eng

let run (type s a) (backend : s Backend.t) ?topology ?chaos ~procs
    (program : Comm.t -> a option) : a * s =
  Obs.Span.timed obs_wall (fun () : (a * s) ->
      let topology = match topology with Some t -> t | None -> default_topology procs in
      let program = with_chaos chaos program in
      match backend with
      | Backend.Sim { cost; trace } ->
          let ((_, stats) as r) =
            Sim.run_collect ?trace { Sim.procs; topology; cost } (fun ctx ->
                program (Engine.of_sim ctx))
          in
          if Obs.enabled () then begin
            Obs.Counter.incr obs_runs;
            Obs.Histogram.record obs_sim_us (int_of_float (stats.Sim.makespan *. 1e6))
          end;
          r
      | Backend.Multicore { domains } ->
          if Obs.enabled () then Obs.Counter.incr obs_mc_runs;
          Multicore.run_collect ?domains ~topology ~procs program
      | Backend.Procs ->
          if Obs.enabled () then Obs.Counter.incr obs_procs_runs;
          Procs.run_collect ~topology ~procs program)
