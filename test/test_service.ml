(* The elastic skeleton service (lib/service): admission control,
   backpressure, coalescing, batching, elastic membership and
   crash-tolerance of the long-lived farm, on both engines. *)

open Machine

let sim = Backend.sim ()

let job_flops = 2_000
let job_s = Cost_model.flops Cost_model.ap1000 job_flops

let workload ?(arrivals = 40) ?(gap = fun _ _ -> 0.0) ?(job_of = fun g -> g) () =
  {
    Service.arrivals;
    gap;
    job_of;
    run = (fun k -> k * k);
    flops = (fun _ -> job_flops);
  }

let steady_gap frac workers clients =
  let capacity = float_of_int workers /. job_s in
  fun _ _ -> float_of_int clients /. (frac *. capacity)

(* --- admission ---------------------------------------------------------- *)

(* Closed loop: a burst far larger than the queue bound, one slow worker.
   Blocked producers must throttle instead of overflowing: the queue never
   exceeds the bound, nothing is shed, and every submission completes. *)
let test_backpressure_respects_bound () =
  let cfg = Service.default ~clients:1 ~queue_bound:3 ~batch:1 ~admission:Service.Block () in
  let r, _ = Service.run sim ~procs:3 cfg (workload ~arrivals:30 ()) in
  Alcotest.(check int) "submitted" 30 r.Service.submitted;
  Alcotest.(check int) "completed" 30 r.Service.completed;
  Alcotest.(check int) "rejected" 0 r.Service.rejected;
  Alcotest.(check bool) "depth bounded" true (r.Service.max_queue_depth <= 3)

(* Open loop at the same burst: the bound is enforced by shedding loudly
   instead, and everything admitted still completes. *)
let test_shed_rejects_at_bound () =
  let cfg = Service.default ~clients:1 ~queue_bound:3 ~batch:1 ~admission:Service.Shed () in
  let r, _ = Service.run sim ~procs:3 cfg (workload ~arrivals:30 ()) in
  Alcotest.(check int) "submitted" 30 r.Service.submitted;
  Alcotest.(check bool) "shed some" true (r.Service.rejected > 0);
  Alcotest.(check bool) "depth bounded" true (r.Service.max_queue_depth <= 3);
  Alcotest.(check int) "completed = admitted + coalesced" r.Service.completed
    (r.Service.submitted - r.Service.rejected)

(* An unsaturated open-loop service sheds nothing and serves at the
   arrival rate with latency ~ one service time. *)
let test_underload_sheds_nothing () =
  let cfg = Service.default ~clients:2 ~queue_bound:8 ~batch:2 ~admission:Service.Shed () in
  let gap = steady_gap 0.4 2 2 in
  let r, _ = Service.run sim ~procs:5 cfg (workload ~arrivals:25 ~gap ()) in
  Alcotest.(check int) "completed" 50 r.Service.completed;
  Alcotest.(check int) "rejected" 0 r.Service.rejected;
  Alcotest.(check bool) "p95 ~ service time" true (r.Service.p95 < 5.0 *. job_s)

(* --- coalescing --------------------------------------------------------- *)

(* Submissions sharing a job key while it is still pending attach to one
   execution: fewer executions than submissions, but every submission gets
   a result. *)
let test_coalescing_shares_executions () =
  let cfg = Service.default ~clients:1 ~queue_bound:16 ~batch:2 ~admission:Service.Block () in
  let wl = workload ~arrivals:40 ~job_of:(fun g -> g mod 4) () in
  let r, _ = Service.run sim ~procs:3 cfg wl in
  Alcotest.(check int) "all submissions answered" 40 r.Service.completed;
  Alcotest.(check bool) "coalesced some" true (r.Service.coalesced > 0);
  Alcotest.(check int) "accepted + coalesced = submitted" 40
    (r.Service.accepted + r.Service.coalesced)

(* --- elastic membership ------------------------------------------------- *)

(* A worker leaves gracefully mid-run and rejoins after its away window;
   the master counts the leave and the rejoin and no submission is lost.
   Grace must dominate the away time (the membership contract). *)
let test_leave_and_rejoin () =
  let leaves = [ (2, { Service.after_jobs = 5; away = 30.0 *. job_s; permanent = false }) ] in
  let cfg =
    Service.default ~clients:1 ~queue_bound:16 ~batch:1 ~admission:Service.Block
      ~grace:(200.0 *. job_s) ~leaves ()
  in
  let gap _ _ = job_s /. 2.0 in
  let r, _ = Service.run sim ~procs:4 cfg (workload ~arrivals:60 ~gap ()) in
  Alcotest.(check int) "completed" 60 r.Service.completed;
  Alcotest.(check int) "leaves" 1 r.Service.leaves;
  Alcotest.(check int) "joins" 1 r.Service.joins

(* A permanent leave shrinks the pool for good; the service still finishes
   on the remaining workers and never double-counts a result. *)
let test_permanent_leave_shrinks_pool () =
  let leaves = [ (3, { Service.after_jobs = 4; away = 0.0; permanent = true }) ] in
  let cfg =
    Service.default ~clients:1 ~queue_bound:16 ~batch:1 ~admission:Service.Block
      ~grace:(200.0 *. job_s) ~leaves ()
  in
  let r, _ = Service.run sim ~procs:5 cfg (workload ~arrivals:40 ()) in
  Alcotest.(check int) "completed" 40 r.Service.completed;
  Alcotest.(check int) "leaves" 1 r.Service.leaves;
  Alcotest.(check int) "joins" 0 r.Service.joins

(* --- crash tolerance ---------------------------------------------------- *)

(* A worker fail-stops mid-run (time-scheduled Chaos crash).  At-least-once
   dispatch re-deals its stranded jobs after the grace and duplicates are
   dropped by key, so every submission is answered exactly once. *)
let test_chaos_crash_recovers_exactly_once () =
  let chaos = { Chaos.none with seed = 7; crashes_at = [ (3, 20.0 *. job_s) ] } in
  let cfg =
    Service.default ~clients:1 ~queue_bound:16 ~batch:2 ~admission:Service.Block
      ~grace:(50.0 *. job_s) ()
  in
  let gap _ _ = job_s /. 3.0 in
  let r, _ = Service.run sim ~chaos ~procs:5 cfg (workload ~arrivals:50 ~gap ()) in
  Alcotest.(check int) "completed exactly once" 50 r.Service.completed;
  Alcotest.(check bool) "re-dealt after silence" true (r.Service.redeals >= 1)

(* Losing every worker with work outstanding must fail loudly, not hang. *)
let test_all_workers_lost_fails_loudly () =
  let chaos = { Chaos.none with seed = 7; crashes_at = [ (2, 5.0 *. job_s) ] } in
  let cfg =
    Service.default ~clients:1 ~queue_bound:16 ~batch:1 ~admission:Service.Block
      ~grace:(20.0 *. job_s) ()
  in
  let gap _ _ = job_s in
  Alcotest.check_raises "loud failure"
    (Failure "Service: all workers lost (no traffic within grace)") (fun () ->
      ignore (Service.run sim ~chaos ~procs:3 cfg (workload ~arrivals:40 ~gap ())))

(* --- drain -------------------------------------------------------------- *)

(* After the last result the master must release every worker: the
   simulator itself proves the shutdown clean, because any undelivered
   message or still-blocked processor raises [Sim.Deadlock]. *)
let test_drain_releases_everyone () =
  let cfg = Service.default ~clients:2 ~queue_bound:8 ~batch:3 ~admission:Service.Block () in
  let r, _ = Service.run sim ~procs:7 cfg (workload ~arrivals:20 ()) in
  Alcotest.(check int) "completed" 40 r.Service.completed

(* --- determinism -------------------------------------------------------- *)

(* The same seed (here: the same deterministic gap schedule and chaos
   spec) must reproduce the report bit-for-bit, timings included. *)
let test_sim_is_deterministic () =
  let chaos = { Chaos.none with seed = 11; delay_prob = 0.1; max_hold = 2 } in
  let leaves = [ (3, { Service.after_jobs = 6; away = 20.0 *. job_s; permanent = false }) ] in
  let cfg =
    Service.default ~clients:2 ~queue_bound:8 ~batch:2 ~admission:Service.Shed
      ~grace:(100.0 *. job_s) ~leaves ()
  in
  let gap c k = job_s *. (0.3 +. (0.1 *. float_of_int ((c + k) mod 5))) in
  let wl = workload ~arrivals:30 ~gap () in
  let r1, s1 = Service.run sim ~chaos ~procs:6 cfg wl in
  let r2, s2 = Service.run sim ~chaos ~procs:6 cfg wl in
  Alcotest.(check bool) "reports identical" true (r1 = r2);
  Alcotest.(check (float 0.0)) "makespans identical" s1.Sim.makespan s2.Sim.makespan

(* --- multicore ---------------------------------------------------------- *)

(* The same program body for real on domains: wall-clock latencies are not
   reproducible, but the counting invariants are. *)
let test_multicore_smoke () =
  let cfg = Service.default ~clients:1 ~queue_bound:8 ~batch:2 ~admission:Service.Block () in
  let mc = Backend.multicore ~domains:2 () in
  let r, _ = Service.run mc ~procs:4 cfg (workload ~arrivals:20 ()) in
  Alcotest.(check int) "completed" 20 r.Service.completed;
  Alcotest.(check int) "rejected" 0 r.Service.rejected;
  Alcotest.(check bool) "latencies measured" true (r.Service.max_latency >= 0.0)

let test_multicore_shed_invariant () =
  let cfg = Service.default ~clients:2 ~queue_bound:2 ~batch:1 ~admission:Service.Shed () in
  let mc = Backend.multicore ~domains:2 () in
  let r, _ = Service.run mc ~procs:5 cfg (workload ~arrivals:15 ()) in
  Alcotest.(check int) "answered = submitted - shed" r.Service.completed
    (r.Service.submitted - r.Service.rejected)

(* --- validation --------------------------------------------------------- *)

let test_config_validation () =
  let wl = workload () in
  let expect_invalid label f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" label
  in
  expect_invalid "too few procs" (fun () ->
      Service.run sim ~procs:2 (Service.default ()) wl);
  expect_invalid "zero bound" (fun () ->
      Service.run sim ~procs:4 (Service.default ~queue_bound:0 ()) wl);
  expect_invalid "zero batch" (fun () ->
      Service.run sim ~procs:4 (Service.default ~batch:0 ()) wl);
  expect_invalid "negative grace" (fun () ->
      Service.run sim ~procs:4 (Service.default ~grace:(-1.0) ()) wl);
  expect_invalid "leave rank is the master" (fun () ->
      Service.run sim ~procs:4
        (Service.default ~leaves:[ (0, { Service.after_jobs = 1; away = 0.0; permanent = true }) ] ())
        wl);
  expect_invalid "leave rank is a client" (fun () ->
      Service.run sim ~procs:4
        (Service.default ~leaves:[ (1, { Service.after_jobs = 1; away = 0.0; permanent = true }) ] ())
        wl);
  expect_invalid "away negative" (fun () ->
      Service.run sim ~procs:4
        (Service.default ~leaves:[ (2, { Service.after_jobs = 1; away = -0.1; permanent = false }) ]
           ())
        wl)

(* --- report JSON -------------------------------------------------------- *)

let test_report_json_shape () =
  let cfg = Service.default ~clients:1 ~queue_bound:4 ~batch:1 () in
  let r, _ = Service.run sim ~procs:3 cfg (workload ~arrivals:10 ()) in
  match Service.report_to_json r with
  | Obs.Json.Obj fields ->
      List.iter
        (fun key ->
          Alcotest.(check bool) (key ^ " present") true (List.mem_assoc key fields))
        [ "submitted"; "completed"; "rejected"; "duration_s"; "jobs_per_s"; "p99_s" ]
  | _ -> Alcotest.fail "report_to_json: expected an object"

let suite =
  [
    ( "admission",
      [
        Alcotest.test_case "backpressure respects bound" `Quick test_backpressure_respects_bound;
        Alcotest.test_case "shed rejects at bound" `Quick test_shed_rejects_at_bound;
        Alcotest.test_case "underload sheds nothing" `Quick test_underload_sheds_nothing;
      ] );
    ( "coalescing",
      [ Alcotest.test_case "shared executions" `Quick test_coalescing_shares_executions ] );
    ( "membership",
      [
        Alcotest.test_case "leave and rejoin" `Quick test_leave_and_rejoin;
        Alcotest.test_case "permanent leave" `Quick test_permanent_leave_shrinks_pool;
      ] );
    ( "faults",
      [
        Alcotest.test_case "crash recovers exactly-once" `Quick
          test_chaos_crash_recovers_exactly_once;
        Alcotest.test_case "all workers lost fails loudly" `Quick
          test_all_workers_lost_fails_loudly;
      ] );
    ("drain", [ Alcotest.test_case "clean shutdown" `Quick test_drain_releases_everyone ]);
    ( "determinism",
      [ Alcotest.test_case "same seed, same report" `Quick test_sim_is_deterministic ] );
    ( "multicore",
      [
        Alcotest.test_case "smoke" `Quick test_multicore_smoke;
        Alcotest.test_case "shed invariant" `Quick test_multicore_shed_invariant;
      ] );
    ("validation", [ Alcotest.test_case "config checks" `Quick test_config_validation ]);
    ("report", [ Alcotest.test_case "json shape" `Quick test_report_json_shape ]);
  ]

let () = Alcotest.run "service" suite
