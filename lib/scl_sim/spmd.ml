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

(* Every SPMD run's wall span and its engine's run counters, around
   [run]: the one place runs are counted. *)
let counted (type s a) (backend : s Backend.t) (run : unit -> a * s) : a * s =
  Obs.Span.timed obs_wall (fun () : (a * s) ->
      match backend with
      | Backend.Sim _ ->
          let ((_, stats) as r) = run () in
          if Obs.enabled () then begin
            Obs.Counter.incr obs_runs;
            Obs.Histogram.record obs_sim_us (int_of_float (stats.Sim.makespan *. 1e6))
          end;
          r
      | Backend.Multicore _ ->
          if Obs.enabled () then Obs.Counter.incr obs_mc_runs;
          run ()
      | Backend.Procs ->
          if Obs.enabled () then Obs.Counter.incr obs_procs_runs;
          run ())

(* Every runner's engine dispatch, over a program on the bare engine.  A
   sim backend's trace wraps each rank's bare engine, so it sits beneath
   any Chaos or Workspace wrapper the program brings: a send Chaos holds
   is recorded when it is released, as the simulator charges it. *)
let run_engine (type s a) (backend : s Backend.t) ?topology ~procs
    (program : Engine.t -> a option) : a * s =
  counted backend (fun () : (a * s) ->
      match backend with
      | Backend.Sim { cost; trace } ->
          let program = match trace with Some t -> Trace.run t program | None -> program in
          Sim.run_collect ~cost ?topology ~procs program
      | Backend.Multicore { domains } -> Multicore.run_collect ?domains ?topology ~procs program
      | Backend.Procs -> Procs.run_collect ?topology ~procs program)

let run backend ?topology ?chaos ~procs program =
  run_engine backend ?topology ~procs (with_chaos chaos program)

(* Flat results.  [procs] and [multicore] have runners of their own:
   on [procs] the producing rank writes its parts, raw, into the pool's
   staging file ([Procs.run_flat]); on [multicore] the run's domains
   share the input copy before the run starts and the result's lay-out
   after every rank has finished ([Multicore.run_flat]).  On [sim] the
   input is copied into a buffer of the run's lease before the run and
   the result laid out after it, each over one range.  Every engine
   checks a part's kind in the rank that returns it, so a mismatch is
   that rank's error.

   On the in-process engines each rank's engine is also wrapped, beneath
   any Chaos wrapper, to lend [Comm.workspace] buffers from the
   run-scoped free list ([Workspace]), and rank 0's to hold the input.
   The result is laid out in fresh storage by the time the run returns,
   so the run's buffers go back to the free list then; a run that
   raises drops them instead, since a rank may have left a view of one
   anywhere.  Procs ranks do the same in their own processes. *)
let run_flat (type s k e) (backend : s Backend.t) ?chaos ~procs
    ~(kind : (k, e) Bigarray.kind) ?(input : k array option)
    (program : Comm.t -> (k, e) Engine.slice array option) : k array * s =
  let program = with_chaos chaos program in
  match backend with
  | Backend.Procs -> counted backend (fun () -> Procs.run_flat ~procs ~kind ?input program)
  | Backend.Multicore { domains } ->
      counted backend (fun () -> Multicore.run_flat ?domains ~procs ~kind ?input program)
  | Backend.Sim _ ->
      Engine.check_kind "Spmd.run_flat" kind;
      let lease = Workspace.lease () in
      let input =
        Option.map
          (fun a -> Scl.Flat.of_array ~into:(Workspace.lend_input lease kind (Array.length a)) kind a)
          input
      in
      let parts, stats =
        run_engine backend ~procs (fun eng ->
            let eng = Workspace.wrap lease eng in
            let eng = match input with Some s when eng.Engine.rank = 0 -> Engine.with_input eng s | _ -> eng in
            Option.map (Engine.check_parts "Spmd.run_flat" kind) (program eng))
      in
      let r = Scl.Flat.concat kind parts in
      Workspace.release lease;
      (r, stats)
