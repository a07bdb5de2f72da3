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

let contains msg needle =
  let n = String.length needle and m = String.length msg in
  let rec go i = i + n <= m && (String.sub msg i n = needle || go (i + 1)) in
  go 0

(* --- fabric basics ------------------------------------------------------ *)

let test_single_rank () =
  let v, stats = Procs.run_collect ~procs:1 (fun eng -> Some (eng.Engine.rank + 41)) in
  Alcotest.(check int) "value" 41 v;
  Alcotest.(check int) "no messages" 0 stats.Procs.total_msgs;
  Alcotest.(check int) "one process" 1 stats.Procs.procs_used;
  Alcotest.(check (list int)) "no crashes" [] stats.Procs.crashed

let test_ping_pong () =
  let v, stats =
    Procs.run_collect ~procs:2 (fun eng ->
        if eng.Engine.rank = 0 then begin
          eng.Engine.send ~dest:1 ~tag:5 "ping";
          let (s : string) = eng.Engine.recv ~src:1 ~tag:6 () in
          Some s
        end
        else begin
          let (s : string) = eng.Engine.recv ~src:0 ~tag:5 () in
          eng.Engine.send ~dest:0 ~tag:6 (s ^ "-pong");
          None
        end)
  in
  Alcotest.(check string) "round trip crossed two processes" "ping-pong" v;
  Alcotest.(check int) "two messages" 2 stats.Procs.total_msgs;
  Alcotest.(check int) "two receives" 2 stats.Procs.total_recvs

(* Receiving tags out of send order: the pending stash holds the earlier
   frame until it is asked for, FIFO per (source, tag). *)
let test_tag_discipline_out_of_order () =
  let v, _ =
    Procs.run_collect ~procs:2 (fun eng ->
        if eng.Engine.rank = 0 then begin
          eng.Engine.send ~dest:1 ~tag:1 10;
          eng.Engine.send ~dest:1 ~tag:2 20;
          None
        end
        else begin
          let (b : int) = eng.Engine.recv ~src:0 ~tag:2 () in
          let (a : int) = eng.Engine.recv ~src:0 ~tag:1 () in
          Some (a, b)
        end)
  in
  Alcotest.(check (pair int int)) "tags matched, not arrival order" (10, 20) v

let test_self_send_rejected () =
  Alcotest.check_raises "self send"
    (Invalid_argument "Procs.send: self-send is not supported (use a local value)") (fun () ->
      ignore
        (Procs.run ~procs:2 (fun eng ->
             if eng.Engine.rank = 0 then eng.Engine.send ~dest:0 ~tag:0 ())))

let test_recv_timeout_fires () =
  (* nobody sends: the receiver must get Fault.Timeout via the select
     deadline, not hang *)
  let v, _ =
    Procs.run_collect ~procs:2 (fun eng ->
        if eng.Engine.rank = 1 then
          match (eng.Engine.recv ~timeout:0.05 ~src:0 ~tag:0 () : int) with
          | _ -> Some false
          | exception Fault.Timeout _ -> Some true
        else None)
  in
  Alcotest.(check bool) "Timeout raised" true v

let test_recv_timeout_in_time () =
  let v, _ =
    Procs.run_collect ~procs:2 (fun eng ->
        if eng.Engine.rank = 0 then begin
          eng.Engine.send ~dest:1 ~tag:0 77;
          None
        end
        else Some (eng.Engine.recv ~timeout:10.0 ~src:0 ~tag:0 () : int))
  in
  Alcotest.(check int) "delivered" 77 v

let test_deadlock_sender_finished () =
  (* waiting on a rank that finished cleanly (goodbye then EOF) is a
     protocol bug, reported as Deadlock — not Crashed *)
  (match Procs.run ~procs:2 (fun eng ->
       if eng.Engine.rank = 0 then ignore (eng.Engine.recv ~src:1 ~tag:0 () : int))
   with
  | _ -> Alcotest.fail "expected Procs.Deadlock"
  | exception Procs.Deadlock msg ->
      Alcotest.(check bool) "names the finished peer" true (contains msg "finished cleanly"));
  ()

let test_undelivered_message () =
  (* a clean finish with unconsumed inbound frames trips the same
     undelivered-message check as the other engines. The receiver sleeps
     first so the frame is guaranteed to have crossed the socket. *)
  match
    Procs.run ~procs:2 (fun eng ->
        if eng.Engine.rank = 0 then eng.Engine.send ~dest:1 ~tag:9 "orphan"
        else eng.Engine.sleep 0.3)
  with
  | _ -> Alcotest.fail "expected Procs.Deadlock (undelivered)"
  | exception Procs.Deadlock msg ->
      Alcotest.(check bool) "undelivered reported" true (contains msg "undelivered")

let test_rank_exception_propagates () =
  (* an arbitrary exception in one child crosses back to the parent with
     its rank attached *)
  match Procs.run ~procs:2 (fun eng -> if eng.Engine.rank = 1 then failwith "worker bug") with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg -> Alcotest.(check string) "message survives" "worker bug" msg

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
  let v, stats =
    Procs.run_collect ~procs:3 (fun eng ->
        match eng.Engine.rank with
        | 0 ->
            eng.Engine.send ~dest:1 ~tag:0 42;
            (* dies with the crash *)
            None
        | 1 -> raise (Fault.Crashed 1)
        | _ -> Some "alive")
  in
  Alcotest.(check string) "live ranks finish" "alive" v;
  Alcotest.(check (list int)) "crash recorded" [ 1 ] stats.Procs.crashed

(* --- engine equivalence: same program, identical values ------------------ *)

let collective_program (comm : Comm.t) =
  let p = Comm.size comm in
  let me = Comm.rank comm in
  let reduced = Comm.allreduce comm ( + ) (me + 1) in
  let scanned = Comm.scan comm ( + ) (me + 1) in
  let gathered = Comm.allgather comm (me * me) in
  let transposed = Comm.alltoall comm (Array.init p (fun j -> (me * 100) + j)) in
  let sub = Comm.split comm ~color:(me mod 2) ~key:me in
  let sub_sum = Comm.allreduce sub ( + ) me in
  let everything = (reduced, scanned, gathered, transposed, sub_sum) in
  match Comm.gather comm ~root:0 everything with
  | Some all -> Some (Array.to_list all)
  | None -> None

let test_engine_equivalence_collectives () =
  List.iter
    (fun procs ->
      let sim, _ = Spmd.run (Backend.sim ()) ~procs collective_program in
      let pr, _ = Spmd.run Backend.procs ~procs collective_program in
      Alcotest.(check bool) (Printf.sprintf "collectives agree at p=%d" procs) true (sim = pr))
    [ 1; 2; 4 ]

(* The bcast/scatter/gather/allgather battery, boxed and slice tiers.
   Slices cross the sockets as raw float64 bit patterns, so the values
   must come back bitwise-identical to the simulator's. *)
let bs_program (comm : Comm.t) =
  let p = Comm.size comm in
  let me = Comm.rank comm in
  let mk n f =
    let a = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
    for i = 0 to n - 1 do
      a.{i} <- f i
    done;
    a
  in
  let to_list (s : Engine.slice) = List.init (Bigarray.Array1.dim s) (fun i -> s.{i}) in
  let b = Comm.bcast comm ~root:0 (if me = 0 then Some "root-word" else None) in
  let sc = Comm.scatter comm ~root:0 (if me = 0 then Some (Array.init p (fun j -> j * 7)) else None) in
  let g = Comm.gather comm ~root:0 (me * 11) in
  let ag = Comm.allgather comm (me + 100) in
  let bsl =
    Comm.bcast_slice comm ~root:0
      (if me = 0 then Some (mk 5 (fun i -> 1.0 /. float_of_int (i + 1))) else None)
  in
  let scl =
    Comm.scatter_slice comm ~root:0
      (if me = 0 then Some (mk (3 * p) (fun i -> float_of_int i *. 0.5)) else None)
  in
  let gsl = Comm.gather_slice comm ~root:0 (mk 2 (fun i -> float_of_int ((me * 10) + i))) in
  let agl = Comm.allgather_slice comm (mk 1 (fun _ -> float_of_int me +. 0.25)) in
  let everything =
    ( b,
      sc,
      (match g with Some a -> Array.to_list a | None -> []),
      Array.to_list ag,
      to_list bsl,
      to_list scl,
      (match gsl with Some s -> to_list s | None -> []),
      to_list agl )
  in
  match Comm.gather comm ~root:0 everything with
  | Some all -> Some (Array.to_list all)
  | None -> None

let test_collective_battery_with_slices () =
  List.iter
    (fun procs ->
      let sim, _ = Spmd.run (Backend.sim ()) ~procs bs_program in
      let pr, _ = Spmd.run Backend.procs ~procs bs_program in
      Alcotest.(check bool)
        (Printf.sprintf "bcast/scatter/gather/allgather (+slices) agree at p=%d" procs)
        true (sim = pr))
    [ 2; 4 ]

let test_reduce_root_sweep () =
  (* every root must see values folded in true rank order (the PR 5
     rotated-root bug), now across process boundaries *)
  let procs = 4 in
  let expected = String.concat "" (List.init procs string_of_int) in
  for root = 0 to procs - 1 do
    let v, _ =
      Spmd.run Backend.procs ~procs (fun c ->
          match Comm.reduce c ~root ( ^ ) (string_of_int (Comm.rank c)) with
          | Some s -> Some s
          | None -> None)
    in
    Alcotest.(check string) (Printf.sprintf "root=%d" root) expected v
  done

let test_engine_equivalence_hyperquicksort () =
  let rng = Runtime.Xoshiro.of_seed 1995 in
  let data = Array.init 600 (fun _ -> Runtime.Xoshiro.int rng 10_000) in
  let reference = Array.copy data in
  Array.sort compare reference;
  List.iter
    (fun procs ->
      let sim, _ = Algorithms.Hyperquicksort.sort (Backend.sim ()) ~procs data in
      let pr, _ = Algorithms.Hyperquicksort.sort Backend.procs ~procs data in
      Alcotest.(check bool) (Printf.sprintf "sim output sorted at p=%d" procs) true
        (sim = reference);
      Alcotest.(check bool) (Printf.sprintf "procs output identical at p=%d" procs) true
        (pr = sim))
    [ 1; 2; 4 ]

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

let test_chaos_zero_fault_value_identical () =
  let bare, _ = Spmd.run Backend.procs ~procs:4 collective_program in
  let wrapped, _ = Spmd.run Backend.procs ~procs:4 ~chaos:Chaos.none collective_program in
  Alcotest.(check bool) "Chaos.none changes nothing" true (bare = wrapped)

let test_chaos_delays_value_identical () =
  let bare, _ = Spmd.run Backend.procs ~procs:4 collective_program in
  List.iter
    (fun seed ->
      let spec = Chaos.delays ~seed ~prob:0.5 ~max_hold:3 () in
      let v, _ = Spmd.run Backend.procs ~procs:4 ~chaos:spec collective_program in
      Alcotest.(check bool) (Printf.sprintf "seed=%d" seed) true (v = bare))
    [ 1; 7; 42 ]

(* --- the crash-tolerant farm, driven by real process deaths --------------- *)

let farm_expected njobs = Array.init njobs (fun i -> i * i)

let test_farm_on_procs () =
  List.iter
    (fun procs ->
      let njobs = 24 in
      let spec = Algorithms.Farm_sim.skewed_spec ~njobs ~skew:6 in
      let got, stats = Algorithms.Farm_sim.dynamic Backend.procs ~procs spec in
      Alcotest.(check bool)
        (Printf.sprintf "all jobs done once at p=%d" procs)
        true
        (got = farm_expected njobs);
      Alcotest.(check (list int)) "no crashes" [] stats.Procs.crashed)
    [ 2; 4 ]

let test_farm_survives_chaos_worker_crash () =
  (* rank 2 fail-stops on its 5th communication op (mid-job) — on this
     engine that is a process dying with its sockets; the master's grace
     timeouts detect the silence and re-deal its job *)
  let njobs = 24 in
  let spec = Algorithms.Farm_sim.skewed_spec ~njobs ~skew:6 in
  (* [work] is a no-op here, so instant job bodies let the first workers
     drain the queue before rank 2 has made its 5th op — then it never
     crashes. A couple of real milliseconds per job keeps it in play. *)
  let spec = { spec with run = (fun i -> Unix.sleepf 0.002; spec.run i) } in
  let chaos = { Chaos.none with Chaos.crashes = [ (2, 5) ] } in
  let got, stats = Algorithms.Farm_sim.dynamic Backend.procs ~procs:4 ~grace:0.5 ~chaos spec in
  Alcotest.(check bool) "all jobs done exactly once" true (got = farm_expected njobs);
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
  Alcotest.(check bool) "all jobs done despite the kill" true (got = farm_expected njobs);
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
