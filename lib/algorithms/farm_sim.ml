(* The farm skeleton's two distributed implementation strategies:

   - [static]: jobs are block-scattered up front (the paper's
     "farm f env = map (f env)" reading — zero scheduling traffic, but
     irregular job sizes leave processors idle);
   - [dynamic]: a master deals jobs on demand (the task-queue reading the
     farm skeleton historically carries — every job costs a round trip,
     but load balances).

   Both run on any engine.

   The crossover between the two under varying job-size skew is the
   classic farm-implementation trade-off; the bench harness reports it.

   Jobs are [int -> 'r] with an explicit per-job operation count, so the
   simulator can price heterogeneous work honestly. *)

open Machine

type 'r job_spec = {
  njobs : int;
  run : int -> 'r;  (* executed on the host; deterministic *)
  flops : int -> int;  (* simulated cost of job i *)
}

(* --- static farm: block distribution ------------------------------------- *)

let static backend ~procs (spec : 'r job_spec) =
  Scl_sim.Spmd.run backend ~procs (fun comm ->
      let me = Comm.rank comm in
      let p = Comm.size comm in
      let bounds = Scl_sim.Dvec.block_bounds ~total:spec.njobs ~parts:p in
      let mine =
        Array.init (bounds.(me + 1) - bounds.(me)) (fun k ->
            let i = bounds.(me) + k in
            Comm.work_flops comm (spec.flops i);
            (i, spec.run i))
      in
      match Comm.gather comm ~root:0 mine with
      | Some chunks ->
          if spec.njobs = 0 then Some [||]
          else begin
            let seed =
              let found = ref None in
              Array.iter
                (fun chunk ->
                  if Array.length chunk > 0 && !found = None then found := Some (snd chunk.(0)))
                chunks;
              Option.get !found
            in
            let out = Array.make spec.njobs seed in
            Array.iter (Array.iter (fun (i, r) -> out.(i) <- r)) chunks;
            Some out
          end
      | None -> None)

(* --- dynamic farm: master-worker with demand-driven dealing ----------------

   The dealing protocol is crash- and straggler-tolerant (at-least-once
   dispatch with job-id dedup):

   - the master tracks every dealt-but-unfinished job; when fresh jobs run
     out it RE-DEALS an outstanding job to the next requester instead of
     releasing it.  A worker that crashed (or is stalling) while holding a
     job therefore cannot strand it — some live requester redoes it, and
     duplicate results are deduplicated by job id ([farm.retries] counts
     the drops, [farm.reassignments] the re-deals).  Workers are only
     released (poison pill, -1) once every job's result is in.
   - with [~grace] the master's receives carry a timeout.  [grace] must
     dominate the longest single job (plus a round trip): any worker silent
     that long while the farm is incomplete is presumed dead.  If the main
     loop times out, ALL remaining traffic sources went silent — every
     un-released worker crashed — and no completion is possible, so the
     master fails loudly.  After completion, the master pills live
     requesters until a final grace elapses, then abandons the (presumed
     dead) rest.  Without [~grace] the protocol still re-deals and dedups,
     but a worker crash leaves the master blocked forever (the engines then
     report [Fault.Deadlock]).

   Fault-free runs with [~grace] behave identically to runs without it on
   the simulator: a timeout event only fires when no in-time delivery
   exists, which a live-worker farm never exhibits (given grace dominates
   job durations). *)

let tag_request = 7001
let tag_job = 7002
let tag_result = 7003

let obs_retries = Obs.Counter.make "farm.retries"
let obs_reassignments = Obs.Counter.make "farm.reassignments"

(* One processor's program for the dynamic farm — engine-parametric, so
   the same master/worker protocol runs on the simulator and on real
   domains (where [recv_any] order is genuinely nondeterministic). *)
let dynamic_program ?grace (spec : 'r job_spec) (comm : Comm.t) : 'r array option =
      let me = Comm.rank comm in
      let p = Comm.size comm in
      if me = 0 then begin
        let next = ref 0 in
        let done_ = Array.make (max 1 spec.njobs) false in
        let remaining = ref spec.njobs in
        let results : (int * 'r) list ref = ref [] in
        let outstanding : int Queue.t = Queue.create () in
        let released = Array.make p false in
        released.(0) <- true;
        let record_result i r =
          if done_.(i) then Obs.Counter.incr obs_retries (* duplicate of a redone job *)
          else begin
            done_.(i) <- true;
            decr remaining;
            results := (i, r) :: !results
          end
        in
        let deal dst =
          if !next < spec.njobs then begin
            Comm.send comm ~dest:dst ~tag:tag_job !next;
            Queue.push !next outstanding;
            incr next
          end
          else begin
            (* fresh jobs exhausted: re-deal the oldest unfinished job, or
               release the worker if none are left *)
            let rec pick () =
              match Queue.take_opt outstanding with
              | Some j when done_.(j) -> pick ()
              | other -> other
            in
            match pick () with
            | Some j ->
                Obs.Counter.incr obs_reassignments;
                Queue.push j outstanding;
                Comm.send comm ~dest:dst ~tag:tag_job j
            | None ->
                Comm.send comm ~dest:dst ~tag:tag_job (-1);
                released.(dst) <- true
          end
        in
        (* main loop: until every job has a result *)
        while !remaining > 0 do
          match Comm.recv_any comm ~tag:tag_request ?timeout:grace () with
          | src, (msg : [ `Request | `Result of int * 'r ]) -> (
              match msg with
              | `Result (i, r) -> record_result i r
              | `Request -> deal src)
          | exception Fault.Timeout _ ->
              (* no worker produced ANY traffic for a whole grace period:
                 with grace > max job duration, they are all dead *)
              failwith "Farm_sim.dynamic: all workers lost (no traffic within grace)"
        done;
        (* termination: pill live requesters; after a silent grace period
           the remaining workers are presumed crashed and abandoned *)
        (try
           while Array.exists not released do
             match Comm.recv_any comm ~tag:tag_request ?timeout:grace () with
             | _, (`Result (i, r) : [ `Request | `Result of int * 'r ]) -> record_result i r
             | src, `Request -> deal src
           done
         with Fault.Timeout _ -> ());
        if !remaining <> 0 || List.length !results <> spec.njobs then
          failwith "Farm_sim.dynamic: lost results";
        match !results with
        | [] -> Some [||]
        | (_, seed) :: _ ->
            let out = Array.make spec.njobs seed in
            List.iter (fun (i, r) -> out.(i) <- r) !results;
            Some out
      end
      else begin
        (* worker: request, work, return result, repeat.  A re-dealt job is
           just executed again — [run] is deterministic, and the master
           drops duplicate results. *)
        let continue_ = ref true in
        while !continue_ do
          Comm.send comm ~dest:0 ~tag:tag_request (`Request : [ `Request | `Result of int * 'r ]);
          let i : int = Comm.recv comm ~src:0 ~tag:tag_job () in
          if i < 0 then continue_ := false
          else begin
            Comm.work_flops comm (spec.flops i);
            let r = spec.run i in
            Comm.send comm ~dest:0 ~tag:tag_request (`Result (i, r) : [ `Request | `Result of int * 'r ])
          end
        done;
        None
      end

(* On real processes the failure detector finally earns its keep: a
   worker that dies there is a dead PID, not a simulated raise, and the
   master's grace timeouts plus re-dealing are the only thing standing
   between that and a hung run. *)
let dynamic backend ?grace ?chaos ~procs (spec : 'r job_spec) =
  if procs < 2 then invalid_arg "Farm_sim.dynamic: needs a master and at least one worker";
  Scl_sim.Spmd.run backend ?chaos ~procs (dynamic_program ?grace spec)

(* Skewed job mix used by tests and benches: the heavy jobs are clustered
   at the front of the index range, so static block dealing dumps them all
   on the first processors while demand-driven dealing spreads them. *)
let skewed_spec ~njobs ~skew : int job_spec =
  {
    njobs;
    run = (fun i -> i * i);
    flops = (fun i -> if i < njobs / 8 then 1000 * skew (* heavy *) else 1000);
  }
