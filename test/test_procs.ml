(* Tests for the multi-process execution engine: the socket fabric (frame
   protocol, per-(source, tag) FIFO, marshal + raw-slice tiers), real
   crash detection (EOF without goodbye -> Fault.Crashed), the
   marshalable-payload discipline, engine equivalence of the Comm
   collectives and hyperquicksort against the simulator, and the
   crash-tolerant farm driven by real process deaths.

   This suite lives in its own executable on purpose: [Procs] forks, and
   forking an OCaml 5 process is only safe while no other domain has
   ever existed — so nothing here spawns domains or pools, except the
   run-contract and fork-after-domain cases, which run last for that
   reason. *)

open Machine
module Spmd = Scl_sim.Spmd

module C = Engine_contract

let contains = C.contains

(* --- fabric basics ------------------------------------------------------ *)

let test_single_rank () =
  let stats = C.single_rank Backend.procs in
  Alcotest.(check int) "no messages" 0 stats.Procs.total_msgs;
  Alcotest.(check int) "one process" 1 stats.Procs.procs_used;
  Alcotest.(check (list int)) "no crashes" [] stats.Procs.crashed

let test_ping_pong () =
  let stats = C.ping_pong Backend.procs in
  Alcotest.(check int) "two messages" 2 stats.Procs.total_msgs;
  Alcotest.(check int) "two receives" 2 stats.Procs.total_recvs

let test_tag_discipline_out_of_order () = C.out_of_order_tags Backend.procs
let test_self_send_rejected () = C.self_send_rejected Backend.procs
let test_recv_timeout_fires () = ignore (C.timeout_fires Backend.procs)
let test_recv_timeout_in_time () = ignore (C.in_time_delivery Backend.procs)

(* waiting on a rank that finished cleanly (goodbye then EOF) is a
   protocol bug, reported as Deadlock — not Crashed *)
let test_deadlock_sender_finished () =
  Alcotest.(check bool) "names the finished peer" true
    (contains (C.sender_finished_deadlock Backend.procs) "finished cleanly")

let test_undelivered_message () = C.undelivered_message ~sync:true Backend.procs
let test_rank_exception_propagates () = C.rank_exception_propagates Backend.procs

(* A frame far larger than the socket buffer must be wholly in the
   kernel when [send] returns: rank 0 then leaves the engine for good
   (blocked on a pipe, 10 s guard), and rank 1 must still receive all of
   it. *)
let test_bulk_send_completes_outside_engine () =
  let rd, wr = Unix.pipe () in
  let n = 1 lsl 19 (* 4 MB marshalled *) in
  Fun.protect
    ~finally:(fun () ->
      Unix.close rd;
      Unix.close wr)
    (fun () ->
      ignore
        (Procs.run ~procs:2 (fun eng ->
             if eng.Engine.rank = 0 then begin
               eng.Engine.send ~dest:1 ~tag:0 (Array.init n Fun.id);
               match Unix.select [ rd ] [] [] 10.0 with
               | [], _, _ -> failwith "bulk frame still undelivered 10 s after send returned"
               | _ -> ()
             end
             else begin
               let (a : int array) = eng.Engine.recv ~src:0 ~tag:0 () in
               if a <> Array.init n Fun.id then failwith "bulk frame corrupted";
               ignore (Unix.write_substring wr "!" 0 1)
             end)))

(* --- marshalable-payload discipline -------------------------------------- *)

let test_unserializable_closure_rejected () =
  (* in-process engines happily ship closures; here the send boundary
     must refuse with the Fault-taxonomy error, not a raw Marshal raise
     somewhere mid-protocol *)
  match
    Procs.run ~procs:2 (fun eng ->
        if eng.Engine.rank = 0 then eng.Engine.send ~dest:1 ~tag:0 (fun x -> x + 1)
        else ignore (eng.Engine.recv ~timeout:2.0 ~src:0 ~tag:0 () : int -> int))
  with
  | _ -> Alcotest.fail "expected Fault.Unserializable"
  | exception Fault.Unserializable msg ->
      Alcotest.(check bool) "send site named" true (contains msg "Procs.send");
      Alcotest.(check bool)
        "explains the boundary" true
        (contains msg "cannot cross a process boundary")

let test_unserializable_result_rejected () =
  match Procs.run_collect ~procs:1 (fun _eng -> Some (fun x -> x * 2)) with
  | _ -> Alcotest.fail "expected Fault.Unserializable"
  | exception Fault.Unserializable msg ->
      Alcotest.(check bool) "collect site named" true (contains msg "run_collect")

(* A pipeline error raised inside a rank has no cross-process form, so it
   arrives as [Child_failure] carrying its printed form.  Only the last
   rank's fetch is out of range; the other ranks, blocked on it, see it
   die, and the run still names the failing rank and its error. *)
let test_pipeline_type_error_is_child_failure () =
  let open Transform in
  let last_oob = { Fn.iname = "last_oob"; iapply = (fun ~n i -> if i = n - 1 then n else i) } in
  let procs = 3 in
  match
    Spmd_exec.run Backend.procs ~procs (Ast.Fetch last_oob) (Value.of_int_array (Array.init 9 Fun.id))
  with
  | _ -> Alcotest.fail "expected Procs.Child_failure"
  | exception Procs.Child_failure (rank, msg) ->
      Alcotest.(check int) "failing rank" (procs - 1) rank;
      Alcotest.(check string) "printed Type_error"
        "Transform.Value.Type_error(\"fetch last_oob: source out of range\")" msg

(* --- real crashes --------------------------------------------------------- *)

let kill_self () = Unix.kill (Unix.getpid ()) Sys.sigkill

let test_real_kill_mid_protocol_is_crashed () =
  (* SIGKILL, not a simulated raise: a surviving rank's untimed receive
     must surface Fault.Crashed when its peer's socket hits EOF without
     a goodbye *)
  match
    Spmd.run Backend.procs ~procs:4 (fun comm ->
        if Comm.rank comm = 2 then kill_self ();
        let s = Comm.allreduce comm ( + ) (Comm.rank comm) in
        if Comm.rank comm = 0 then Some s else None)
  with
  | _ -> Alcotest.fail "expected Fault.Crashed"
  | exception Fault.Crashed _ -> ()

let test_real_kill_timed_recv_still_times_out () =
  (* the failure-detector contract: a receive WITH a timeout never maps
     peer death to Crashed — it waits out the deadline and raises
     Timeout, which is all the farm master catches *)
  let v, stats =
    Procs.run_collect ~procs:2 (fun eng ->
        if eng.Engine.rank = 1 then kill_self ();
        if eng.Engine.rank = 0 then
          match (eng.Engine.recv ~timeout:0.3 ~src:1 ~tag:0 () : int) with
          | _ -> Some "delivered"
          | exception Fault.Timeout _ -> Some "timeout"
          | exception Fault.Crashed _ -> Some "crashed"
        else None)
  in
  Alcotest.(check string) "Timeout, not Crashed" "timeout" v;
  Alcotest.(check (list int)) "the kill is recorded" [ 1 ] stats.Procs.crashed

let test_chaos_crash_is_fail_stop () =
  (* Chaos's Fault.Crashed self-raise fail-stops the real process: no
     goodbye, sockets slammed shut, run completes without it *)
  let stats = C.crash_is_fail_stop Backend.procs in
  Alcotest.(check (list int)) "crash recorded" [ 1 ] stats.Procs.crashed

(* --- engine equivalence: same program, identical values ------------------ *)

let test_engine_equivalence_collectives () = C.collectives_equal_sim Backend.procs
let test_collective_battery_with_slices () = C.rooted_collectives_equal_sim Backend.procs
let test_reduce_root_sweep () = C.reduce_root_sweep Backend.procs
let test_engine_equivalence_hyperquicksort () = C.hyperquicksort_equal_sim Backend.procs
let test_engine_equivalence_solvers () = C.solvers_equal_sim Backend.procs
let test_engine_equivalence_algorithms () = C.algorithms_equal_sim Backend.procs

(* Bulk frames in both directions at once, every pair in flight: each
   frame is megabytes, far above the socket buffer, so both partners sit
   in [send] together and must keep draining each other. Ranks return
   small fingerprints; the values are checked against the expected
   contents and against the simulator. *)
let bulk_n = 1 lsl 20

let bulk_program (comm : Comm.t) =
  let p = Comm.size comm and me = Comm.rank comm in
  let entry ~src ~dst i = (src * 1_000_003) + (dst * 7919) + i in
  let block ~src ~dst n = Array.init n (entry ~src ~dst) in
  (* element-wise, without building the expected copy *)
  let is_block ~src ~dst n a =
    Array.length a = n
    &&
    let ok = ref true in
    Array.iteri (fun i x -> if x <> entry ~src ~dst i then ok := false) a;
    !ok
  in
  let fp a = Array.fold_left (fun h x -> (h * 31) + x) (Array.length a) a in
  let exchanged =
    List.init (p - 1) (fun k ->
        let partner = me lxor (k + 1) in
        let got = Comm.exchange comm ~partner (block ~src:me ~dst:partner bulk_n) in
        (partner, is_block ~src:partner ~dst:me bulk_n got, fp got))
  in
  let half = bulk_n / 2 in
  let blocks = Comm.alltoall comm (Array.init p (fun j -> block ~src:me ~dst:j half)) in
  let a2a = Array.to_list (Array.mapi (fun j b -> (is_block ~src:j ~dst:me half b, fp b)) blocks) in
  let value r i = float_of_int ((r * bulk_n) + i) *. 0.5 in
  let mine = Bigarray.Array1.init Bigarray.float64 Bigarray.c_layout bulk_n (value me) in
  let partner = me lxor 1 in
  Comm.send_slice comm ~dest:partner mine;
  let theirs = Comm.recv_slice comm ~src:partner () in
  let slice_ok =
    Bigarray.Array1.dim theirs = bulk_n
    && Seq.for_all (fun i -> theirs.{i} = value partner i) (Seq.init bulk_n Fun.id)
  in
  match Comm.gather comm ~root:0 (exchanged, a2a, slice_ok) with
  | Some all -> Some (Array.to_list all)
  | None -> None

let test_bulk_frames_both_directions () =
  List.iter
    (fun procs ->
      let sim, _ = Spmd.run (Backend.sim ()) ~procs bulk_program in
      let pr, _ = Spmd.run Backend.procs ~procs bulk_program in
      let all_ok =
        List.for_all
          (fun (ex, a2a, slice_ok) ->
            slice_ok && List.for_all (fun (_, ok, _) -> ok) ex && List.for_all fst a2a)
          pr
      in
      Alcotest.(check bool) (Printf.sprintf "payloads intact at p=%d" procs) true all_ok;
      Alcotest.(check bool) (Printf.sprintf "procs agrees with sim at p=%d" procs) true (pr = sim))
    [ 2; 4 ]

(* --- chaos on real processes --------------------------------------------- *)

let test_chaos_zero_fault_value_identical () = ignore (C.chaos_none_identity Backend.procs)
let test_chaos_delays_value_identical () = C.chaos_delays_preserve_values Backend.procs

(* --- the crash-tolerant farm, driven by real process deaths --------------- *)

let test_farm_on_procs () =
  List.iter
    (fun stats -> Alcotest.(check (list int)) "no crashes" [] stats.Procs.crashed)
    (C.dynamic_farm Backend.procs)

let test_farm_survives_chaos_worker_crash () =
  let stats = C.farm_survives_worker_crash Backend.procs in
  Alcotest.(check (list int)) "the crash is recorded" [ 2 ] stats.Procs.crashed

let test_farm_survives_real_kill () =
  (* the end-to-end scenario this engine exists for: a worker is
     SIGKILLed after ACCEPTING a job (so the job is genuinely stranded),
     and the farm still completes via at-least-once re-dealing. The
     victim speaks the worker protocol directly (request tag 7001, job
     tag 7002 — the farm's wire protocol) for exactly one deal, then
     dies holding the job. *)
  let njobs = 16 in
  let spec = Algorithms.Farm_sim.skewed_spec ~njobs ~skew:4 in
  let got, stats =
    Spmd.run Backend.procs ~procs:4 (fun comm ->
        if Comm.rank comm = 3 then begin
          Comm.send comm ~dest:0 ~tag:7001 (`Request : [ `Request | `Result of int * int ]);
          let (_job : int) = Comm.recv comm ~src:0 ~tag:7002 () in
          kill_self ();
          None
        end
        else Algorithms.Farm_sim.dynamic_program ~grace:0.5 spec comm)
  in
  Alcotest.(check bool) "all jobs done despite the kill" true (got = C.farm_expected njobs);
  Alcotest.(check (list int)) "the dead worker is recorded" [ 3 ] stats.Procs.crashed

let test_farm_all_workers_lost () =
  (* every worker dies: with grace armed the master must fail loudly
     rather than hang on dead sockets *)
  let spec = Algorithms.Farm_sim.skewed_spec ~njobs:12 ~skew:4 in
  let chaos = { Chaos.none with Chaos.crashes = [ (1, 3); (2, 3); (3, 3) ] } in
  match Algorithms.Farm_sim.dynamic Backend.procs ~procs:4 ~grace:0.4 ~chaos spec with
  | _ -> Alcotest.fail "expected loud failure"
  | exception Failure msg ->
      Alcotest.(check bool) "all-lost reported" true (contains msg "all workers lost")

(* --- hygiene across repeated runs ------------------------------------------ *)

let fd_count () = Array.length (Sys.readdir "/proc/self/fd")

let test_repeated_runs_leave_nothing () =
  (* clean runs, a rank that raises, and a chaos crash, 300 runs in all:
     every socket closed and every child reaped each time *)
  let before = fd_count () in
  let sum c =
    let s = Comm.allreduce c ( + ) (Comm.rank c) in
    if Comm.rank c = 0 then Some s else None
  in
  let chaos = { Chaos.none with Chaos.crashes = [ (2, 1) ] } in
  for _ = 1 to 100 do
    Alcotest.(check int) "clean allreduce" 6 (fst (Spmd.run Backend.procs ~procs:4 sum));
    (match Procs.run ~procs:4 (fun eng -> if eng.Engine.rank = 3 then failwith "boom") with
    | _ -> Alcotest.fail "expected Failure"
    | exception Failure _ -> ());
    match Spmd.run Backend.procs ~procs:4 ~chaos sum with
    | _ -> Alcotest.fail "expected Fault.Crashed"
    | exception Fault.Crashed _ -> ()
  done;
  Alcotest.(check int) "no fd leaked" before (fd_count ());
  match Unix.waitpid [ WNOHANG ] (-1) with
  | pid, _ -> Alcotest.failf "child %d left behind" pid
  | exception Unix.Unix_error (ECHILD, _, _) -> ()

let suite =
  [
    ( "fabric",
      [
        Alcotest.test_case "single rank" `Quick test_single_rank;
        Alcotest.test_case "ping pong" `Quick test_ping_pong;
        Alcotest.test_case "tag discipline out of order" `Quick test_tag_discipline_out_of_order;
        Alcotest.test_case "self send rejected" `Quick test_self_send_rejected;
        Alcotest.test_case "recv timeout fires" `Quick test_recv_timeout_fires;
        Alcotest.test_case "in-time delivery beats deadline" `Quick test_recv_timeout_in_time;
        Alcotest.test_case "sender finished is deadlock" `Quick test_deadlock_sender_finished;
        Alcotest.test_case "undelivered message" `Quick test_undelivered_message;
        Alcotest.test_case "rank exception propagates" `Quick test_rank_exception_propagates;
        Alcotest.test_case "bulk send completes outside the engine" `Quick
          test_bulk_send_completes_outside_engine;
      ] );
    ( "marshal-discipline",
      [
        Alcotest.test_case "closure payload rejected" `Quick test_unserializable_closure_rejected;
        Alcotest.test_case "closure result rejected" `Quick test_unserializable_result_rejected;
        Alcotest.test_case "in-rank Type_error is Child_failure" `Quick
          test_pipeline_type_error_is_child_failure;
      ] );
    ( "crashes",
      [
        Alcotest.test_case "SIGKILL mid-protocol is Crashed" `Quick
          test_real_kill_mid_protocol_is_crashed;
        Alcotest.test_case "timed recv from dead peer times out" `Quick
          test_real_kill_timed_recv_still_times_out;
        Alcotest.test_case "chaos crash is fail-stop" `Quick test_chaos_crash_is_fail_stop;
      ] );
    ( "engine-equivalence",
      [
        Alcotest.test_case "collectives p=1/2/4" `Quick test_engine_equivalence_collectives;
        Alcotest.test_case "bcast/scatter/gather/allgather + slices p=2/4" `Quick
          test_collective_battery_with_slices;
        Alcotest.test_case "reduce root sweep" `Quick test_reduce_root_sweep;
        Alcotest.test_case "hyperquicksort p=1/2/4" `Quick test_engine_equivalence_hyperquicksort;
        Alcotest.test_case "jacobi/heat2d/cg" `Quick test_engine_equivalence_solvers;
        Alcotest.test_case "ten algorithms equal sim" `Quick test_engine_equivalence_algorithms;
      ] );
    ( "chaos",
      [
        Alcotest.test_case "zero-fault wrap is value-identical" `Quick
          test_chaos_zero_fault_value_identical;
        Alcotest.test_case "delays preserve values" `Quick test_chaos_delays_value_identical;
      ] );
    ( "farm",
      [
        Alcotest.test_case "dynamic farm p=2/4" `Quick test_farm_on_procs;
        Alcotest.test_case "survives chaos worker crash" `Quick
          test_farm_survives_chaos_worker_crash;
        Alcotest.test_case "survives a real SIGKILL" `Quick test_farm_survives_real_kill;
        Alcotest.test_case "all workers lost fails loudly" `Quick test_farm_all_workers_lost;
      ] );
    ( "hygiene",
      [
        Alcotest.test_case "300 runs leak no fd and no child" `Quick
          test_repeated_runs_leave_nothing;
      ] );
    C.contract_group Backend.procs;
  ]
  @ C.chaos_groups Backend.procs
  @ [
      (* after the fork-heavy groups: the simulator leg grows this process's
         heap, and every later fork pays for its page tables *)
      ( "bulk",
        [
          Alcotest.test_case "frames both directions p=2/4" `Quick
            test_bulk_frames_both_directions;
        ] );
    ]

(* --- the run contract, on all three engines ------------------------------- *)

let test_lowest_rank_wins () =
  (* every rank offers a value; [Spmd.run] returns the lowest rank's on
     every engine, checked here on the main domain. The multicore leg
     spawns domains, after which this process can never fork again. *)
  let program c = Some (Comm.rank c) in
  Alcotest.(check int) "sim" 0 (fst (Spmd.run (Backend.sim ()) ~procs:4 program));
  Alcotest.(check int) "procs" 0 (fst (Spmd.run Backend.procs ~procs:4 program));
  for _ = 1 to 50 do
    Alcotest.(check int) "multicore" 0
      (fst (Spmd.run (Backend.multicore ~domains:2 ()) ~procs:4 program))
  done

let test_fork_after_domain () =
  (* this process has now created a domain, so fork is refused for good:
     the run must name the reason and leave no socket behind *)
  Domain.join (Domain.spawn ignore);
  let before = fd_count () in
  (match Procs.run ~procs:4 ignore with
  | _ -> Alcotest.fail "expected Procs.Fork_after_domain"
  | exception Procs.Fork_after_domain -> ());
  Alcotest.(check int) "no fd leaked" before (fd_count ())

(* Must stay the last groups: see the note at the top of the file. *)
let suite =
  suite
  @ [
      ( "run-contract",
        [ Alcotest.test_case "lowest rank wins on every engine" `Quick test_lowest_rank_wins ] );
      ( "fork-after-domain",
        [ Alcotest.test_case "named error, no fd leak" `Quick test_fork_after_domain ] );
    ]

let () = Alcotest.run "procs" suite
