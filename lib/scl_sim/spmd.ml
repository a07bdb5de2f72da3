(* The one runner for SPMD skeleton programs: the same
   [Comm.t -> 'a option] program body runs on whichever engine the
   [Backend.t] value names, and the engine's own stats record comes
   back. *)

open Machine

let default_topology = Topology.default

(* Observability: the simulator itself records messages/bytes and
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

(* Every runner's engine dispatch, over a program on the bare engine. *)
let run_engine (type s a) (backend : s Backend.t) ?topology ~procs
    (program : Engine.t -> a option) : a * s =
  Obs.Span.timed obs_wall (fun () : (a * s) ->
      let topology = match topology with Some t -> t | None -> default_topology procs in
      match backend with
      | Backend.Sim { cost; trace } ->
          let ((_, stats) as r) = Sim.run_collect ?trace ~cost ~topology ~procs program in
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

let run backend ?topology ?chaos ~procs program =
  run_engine backend ?topology ~procs (with_chaos chaos program)

(* Flat results: on [procs] the producing rank streams its parts home
   raw ([Procs.run_flat]); on the in-process engines the producing rank
   lays them out itself, so the lay-out overlaps the other ranks'
   teardown (on a 2-vCPU VM, a 1M-key 2-domain sort took ~5 ms longer
   with the lay-out after the run).  [Scl.Flat.concat] checks the parts'
   kinds, so a mismatch is that rank's error on every engine.

   On the in-process engines each rank's engine is also wrapped, beneath
   any Chaos wrapper, to lend [Comm.workspace] buffers from the
   run-scoped free list ([Workspace]), and rank 0's to hold the input,
   copied into one of them.  The result is already laid out in fresh
   storage when the run returns, so the run's buffers go back to the
   free list then; a run that raises drops them instead, since a rank
   may have left a view of one anywhere.  Procs ranks do the same in
   their own processes. *)
let run_flat (type s k e) (backend : s Backend.t) ?topology ?chaos ~procs
    ~(kind : (k, e) Bigarray.kind) ?(input : k array option)
    (program : Comm.t -> (k, e) Engine.slice array option) : k array * s =
  match backend with
  | Backend.Procs ->
      Obs.Span.timed obs_wall (fun () ->
          if Obs.enabled () then Obs.Counter.incr obs_procs_runs;
          Procs.run_flat ?topology ~procs ~kind ?input (with_chaos chaos program))
  | Backend.Sim _ | Backend.Multicore _ ->
      Engine.check_kind "Spmd.run_flat" kind;
      let lease = Workspace.lease () in
      let laid_out comm = Option.map (Scl.Flat.concat kind) (program comm) in
      let r =
        run_engine backend ?topology ~procs (fun eng ->
            let eng = Workspace.wrap lease eng in
            let eng =
              match input with
              | Some a when eng.Engine.rank = 0 ->
                  (* a copy: the program may sort it in place, and the
                     caller's array must not change *)
                  let into = Comm.workspace (Comm.world eng) kind (Array.length a) in
                  Engine.with_input eng (Scl.Flat.of_array ~into kind a)
              | _ -> eng
            in
            with_chaos chaos laid_out eng)
      in
      Workspace.release lease;
      r
