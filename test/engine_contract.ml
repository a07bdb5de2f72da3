(* The engine contract, checked once for every engine.

   Each case is a function of the backend, so the simulator, the
   multicore fabric and the process engine run one body.  Cases that
   accept [?chaos] are value-level: their expected values hold under any
   delay schedule, and [chaos_groups] runs them under [Chaos.none] and
   [Chaos.delays].  A case returns the engine's own stats record when a
   caller has engine-specific assertions to make on it.

   Every rank's value comes home through [Spmd.run] and is checked on the
   calling domain, never inside a rank body (a failed check in a forked
   child would only be a child error). *)

open Machine
module Spmd = Scl_sim.Spmd

let contains msg needle =
  let n = String.length needle and m = String.length msg in
  let rec go i = i + n <= m && (String.sub msg i n = needle || go (i + 1)) in
  go 0

(* Engine-level programs: each rank gets its (possibly chaos-wrapped)
   engine.  At least one rank must return [Some]. *)
let run backend ?chaos ~procs program =
  Spmd.run backend ?chaos ~procs (fun c -> program (Comm.engine c))

(* "Sim", "Multicore" or "Procs": the prefix of the engine's messages. *)
let prefix backend = String.capitalize_ascii (Backend.name backend)

(* The timeout of the cases that must see one fire: wall seconds on the
   real engines, simulated seconds on the simulator. *)
let timeout = 0.05

let expect_deadlock what f =
  match f () with
  | _ -> Alcotest.failf "expected Fault.Deadlock (%s)" what
  | exception Fault.Deadlock msg -> msg

(* --- point to point ------------------------------------------------------ *)

let single_rank ?chaos backend =
  let v, stats = run backend ?chaos ~procs:1 (fun eng -> Some (eng.Engine.rank + 41)) in
  Alcotest.(check int) "value" 41 v;
  stats

let ping_pong ?chaos backend =
  let v, stats =
    run backend ?chaos ~procs:2 (fun eng ->
        if eng.Engine.rank = 0 then begin
          eng.Engine.send ~dest:1 ~tag:5 "ping";
          Some (eng.Engine.recv ~src:1 ~tag:6 () : string)
        end
        else begin
          let (s : string) = eng.Engine.recv ~src:0 ~tag:5 () in
          eng.Engine.send ~dest:0 ~tag:6 (s ^ "-pong");
          None
        end)
  in
  Alcotest.(check string) "round trip" "ping-pong" v;
  stats

(* Receiving tags out of send order: the pending stash holds the earlier
   message until it is asked for. *)
let out_of_order_tags ?chaos backend =
  let v, _ =
    run backend ?chaos ~procs:2 (fun eng ->
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

let self_send_rejected backend =
  Alcotest.check_raises "self send"
    (Invalid_argument (prefix backend ^ ".send: self-send is not supported (use a local value)"))
    (fun () ->
      ignore
        (run backend ~procs:2 (fun eng ->
             if eng.Engine.rank = 0 then eng.Engine.send ~dest:0 ~tag:0 ();
             Some ())))

(* Every argument check, with its exact text: the engines share the code
   that raises it. *)
let argument_checks backend =
  let e = prefix backend in
  let s = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 1 in
  let self op = Printf.sprintf "%s.%s: self-send is not supported (use a local value)" e op in
  let range op = Printf.sprintf "%s.%s: rank 2 out of range [0,2)" e op in
  let negative op what = Printf.sprintf "%s.%s: negative %s" e op what in
  List.iter
    (fun (expected, op) ->
      Alcotest.check_raises expected (Invalid_argument expected) (fun () ->
          ignore
            (run backend ~procs:2 (fun eng ->
                 if eng.Engine.rank = 0 then op eng;
                 Some ()))))
    [
      (self "send", fun eng -> eng.Engine.send ~dest:0 ~tag:0 ());
      (range "send", fun eng -> eng.Engine.send ~dest:2 ~tag:0 ());
      (self "send_slice", fun eng -> eng.Engine.send_slice ~dest:0 ~tag:0 s);
      (range "send_slice", fun eng -> eng.Engine.send_slice ~dest:2 ~tag:0 s);
      (range "recv", fun eng -> ignore (eng.Engine.recv ~src:2 ~tag:0 () : int));
      (range "recv_slice", fun eng -> ignore (eng.Engine.recv_slice ~src:2 ~tag:0 ()));
      ( negative "recv" "timeout",
        fun eng -> ignore (eng.Engine.recv ~timeout:(-1.0) ~src:1 ~tag:0 () : int) );
      ( negative "recv_any" "timeout",
        fun eng -> ignore (eng.Engine.recv_any ~timeout:(-1.0) () : int * int) );
      ( negative "recv_slice" "timeout",
        fun eng -> ignore (eng.Engine.recv_slice ~timeout:(-1.0) ~src:1 ~tag:0 ()) );
      (negative "work" "duration", fun eng -> eng.Engine.work (-1.0));
      (negative "sleep" "duration", fun eng -> eng.Engine.sleep (-1.0));
    ]

(* --- deadlines ------------------------------------------------------------ *)

(* Nobody sends: the receiver gets Fault.Timeout, not a hang or a
   Deadlock. *)
let timeout_fires ?chaos backend =
  let v, stats =
    run backend ?chaos ~procs:2 (fun eng ->
        if eng.Engine.rank = 1 then
          match (eng.Engine.recv ~timeout ~src:0 ~tag:0 () : int) with
          | _ -> Some false
          | exception Fault.Timeout _ -> Some true
        else None)
  in
  Alcotest.(check bool) "Timeout raised" true v;
  stats

(* A message that arrives promptly beats a generous deadline. *)
let in_time_delivery ?chaos backend =
  let v, stats =
    run backend ?chaos ~procs:2 (fun eng ->
        if eng.Engine.rank = 0 then begin
          eng.Engine.send ~dest:1 ~tag:0 77;
          None
        end
        else Some (eng.Engine.recv ~timeout:10.0 ~src:0 ~tag:0 () : int))
  in
  Alcotest.(check int) "delivered" 77 v;
  stats

(* A timed receive from a peer that fail-stopped is a Timeout: the
   failure-detector contract the farm's grace period relies on. *)
let timed_recv_from_crashed_peer ?chaos backend =
  let v, _ =
    run backend ?chaos ~procs:2 (fun eng ->
        if eng.Engine.rank = 0 then raise (Fault.Crashed 0)
        else
          match (eng.Engine.recv ~timeout ~src:0 ~tag:0 () : int) with
          | _ -> Some "delivered"
          | exception Fault.Timeout _ -> Some "timeout"
          | exception Fault.Crashed _ -> Some "crashed")
  in
  Alcotest.(check string) "Timeout, not Deadlock or Crashed" "timeout" v

(* --- deadlock, failure, fail-stop ----------------------------------------- *)

(* Each rank waits on the other: global quiescence.  Only engines with a
   whole-machine view (sim, multicore) can see it; on procs it hangs. *)
let mutual_recv_deadlock backend =
  let msg =
    expect_deadlock "mutual recv" (fun () ->
        run backend ~procs:2 (fun eng ->
            ignore (eng.Engine.recv ~src:(1 - eng.Engine.rank) ~tag:0 () : int);
            Some ()))
  in
  Alcotest.(check bool) "describes blocked ranks" true
    (contains msg "no runnable processor" && contains msg "recv(src=")

(* Rank 1 waits on rank 0, which finishes without sending.  Returns the
   message for engine-specific wording. *)
let sender_finished_deadlock backend =
  expect_deadlock "sender finished" (fun () ->
      run backend ~procs:2 (fun eng ->
          if eng.Engine.rank = 1 then ignore (eng.Engine.recv ~src:0 ~tag:0 () : int);
          Some ()))

(* A clean finish with an unconsumed message.  Without [sync] the
   receiver never enters the engine, so only the end-of-run check can find
   the orphan.  On procs, where a rank checks its own inbox as it finishes,
   [sync] has it first take a later message on the same channel pair. *)
let undelivered_message ?(sync = false) backend =
  let msg =
    expect_deadlock "undelivered" (fun () ->
        run backend ~procs:2 (fun eng ->
            if eng.Engine.rank = 0 then begin
              eng.Engine.send ~dest:1 ~tag:9 "orphan";
              if sync then eng.Engine.send ~dest:1 ~tag:10 "sync";
              None
            end
            else begin
              if sync then ignore (eng.Engine.recv ~src:0 ~tag:10 () : string);
              Some ()
            end))
  in
  Alcotest.(check string) "undelivered reported"
    "processor 1 finished with 1 undelivered message(s); first from p0 tag 9" msg

let rank_exception_propagates backend =
  match
    run backend ~procs:4 (fun eng ->
        if eng.Engine.rank = 2 then failwith "boom";
        Some ())
  with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg -> Alcotest.(check string) "original exception" "boom" msg

(* A chain of waits ending at a failed rank: rank 0 waits on rank 1, rank 1
   on rank 2, and rank 2 raises.  The run reports the root cause, not the
   crash a waiting rank sees when its peer dies with the error. *)
let rank_error_chain backend =
  match
    run backend ~procs:3 (fun eng ->
        if eng.Engine.rank = 2 then failwith "boom";
        ignore (eng.Engine.recv ~src:(eng.Engine.rank + 1) ~tag:0 () : int);
        Some ())
  with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg -> Alcotest.(check string) "root cause" "boom" msg

(* A scalar pipeline input is refused by the caller before any rank runs,
   so it is a [Value.Type_error] on every engine. *)
let spmd_exec_scalar_input backend =
  let open Transform in
  match Spmd_exec.run backend ~procs:2 (Ast.Map Fn.incr) (Value.Int 3) with
  | _ -> Alcotest.fail "expected Value.Type_error"
  | exception Value.Type_error _ -> ()

(* A crashed rank fails neither the run nor the undelivered-message check
   for the traffic it never read.  On the simulator with unit costs the
   makespan is the survivors' 2 s of work. *)
let crash_is_fail_stop ?chaos backend =
  let v, stats =
    run backend ?chaos ~procs:3 (fun eng ->
        match eng.Engine.rank with
        | 0 ->
            eng.Engine.send ~dest:1 ~tag:0 42;
            eng.Engine.work 1.0;
            None
        | 1 -> raise (Fault.Crashed 1)
        | _ ->
            eng.Engine.work 2.0;
            Some "alive")
  in
  Alcotest.(check string) "live ranks finish" "alive" v;
  stats

(* --- collectives and algorithms, equal to the simulator ------------------- *)

(* Every collective, with reduce at every root under a non-commutative
   operator; root 0 gathers each rank's results. *)
let collectives c =
  let p = Comm.size c and me = Comm.rank c in
  let reduces = List.init p (fun root -> Comm.reduce c ~root ( ^ ) (string_of_int me)) in
  let sum = Comm.allreduce c ( + ) (me + 1) in
  let ar = Comm.allreduce c ( ^ ) (string_of_int me) in
  let sc = Comm.scan c ( ^ ) (string_of_int me) in
  let ag = Comm.allgather c (me * me) in
  let at = Comm.alltoall c (Array.init p (fun j -> (me * 100) + j)) in
  let sub = Comm.split c ~color:(me mod 2) ~key:me in
  let sub_sum = Comm.allreduce sub ( + ) me in
  Option.map Array.to_list (Comm.gather c ~root:0 (reduces, sum, ar, sc, ag, at, sub_sum))

let collectives_equal_sim ?chaos backend =
  List.iter
    (fun procs ->
      let sim, _ = Spmd.run (Backend.sim ()) ~procs collectives in
      let v, _ = Spmd.run backend ?chaos ~procs collectives in
      Alcotest.(check bool) (Printf.sprintf "collectives agree at p=%d" procs) true (v = sim))
    [ 1; 2; 4 ]

(* Every root sees the members' values folded in true rank order, not
   rotated by the root; every other rank gets [None]. *)
let reduce_root_sweep ?chaos backend =
  List.iter
    (fun procs ->
      let expected = String.concat "" (List.init procs string_of_int) in
      let per_rank, _ =
        Spmd.run backend ?chaos ~procs (fun c ->
            let me = string_of_int (Comm.rank c) in
            Comm.gather c ~root:0 (List.init procs (fun root -> Comm.reduce c ~root ( ^ ) me)))
      in
      Array.iteri
        (fun rank got ->
          List.iteri
            (fun root v ->
              Alcotest.(check (option string))
                (Printf.sprintf "p=%d root=%d rank=%d" procs root rank)
                (if rank = root then Some expected else None)
                v)
            got)
        per_rank)
    [ 2; 3; 5; 8 ]

let slice_of_list xs : Engine.slice =
  Bigarray.Array1.of_array Bigarray.float64 Bigarray.c_layout (Array.of_list xs)

let slice_to_list (s : Engine.slice) = List.init (Bigarray.Array1.dim s) (Bigarray.Array1.get s)

(* The slice payloads.  Most values (1/3, 0.2, ...) have no exact
   float32 or short decimal form, so an encoding that drops precision
   shows. *)
let whole = List.init 17 (fun i -> 1.0 /. float_of_int (i + 1))
let part_of r = [ float_of_int r +. (1.0 /. 3.0); 100.0 ]
let root_only r v = if r = 0 then Some v else None

(* The rooted collectives, boxed and slice tiers; root 0 gathers each
   rank's results. *)
let rooted_collectives c =
  let p = Comm.size c and me = Comm.rank c in
  let b = Comm.bcast c ~root:0 (root_only me "root-word") in
  let sc = Comm.scatter c ~root:0 (root_only me (Array.init p (fun j -> j * 7))) in
  let g = Comm.gather c ~root:0 (me * 11) in
  let bsl = Comm.bcast_slice c ~root:0 (root_only me (slice_of_list whole)) in
  let mine = Comm.scatter_slice c ~root:0 (root_only me (slice_of_list whole)) in
  let back = Comm.gather_slice c ~root:0 mine in
  let agl = Comm.allgather_slice c (slice_of_list (part_of me)) in
  Option.map Array.to_list
    (Comm.gather c ~root:0
       ( b,
         sc,
         Option.map Array.to_list g,
         slice_to_list bsl,
         Option.map slice_to_list back,
         slice_to_list agl ))

(* Slices cross the procs sockets as raw float64 bit patterns, so the
   values must equal the simulator's bit for bit. *)
let rooted_collectives_equal_sim ?chaos backend =
  List.iter
    (fun procs ->
      let name what = Printf.sprintf "%s p=%d %s" (Backend.name backend) procs what in
      let sim, _ = Spmd.run (Backend.sim ()) ~procs rooted_collectives in
      let per_rank, _ = Spmd.run backend ?chaos ~procs rooted_collectives in
      Alcotest.(check bool) (name "equal to sim") true (per_rank = sim);
      let all_of = List.concat (List.init procs part_of) in
      List.iteri
        (fun r (b, sc, g, bsl, back, agl) ->
          Alcotest.(check string) (name "bcast") "root-word" b;
          Alcotest.(check int) (name "scatter") (r * 7) sc;
          Alcotest.(check (option (list int)))
            (name "gather") (root_only r (List.init procs (fun j -> j * 11))) g;
          Alcotest.(check (list (float 0.0))) (name "bcast_slice") whole bsl;
          Alcotest.(check (option (list (float 0.0))))
            (name "gather_slice inverts scatter_slice") (root_only r whole) back;
          Alcotest.(check (list (float 0.0))) (name "allgather_slice") all_of agl)
        per_rank)
    [ 1; 2; 4 ]

let hyperquicksort_equal_sim backend =
  let rng = Runtime.Xoshiro.of_seed 1995 in
  let data = Array.init 800 (fun _ -> Runtime.Xoshiro.int rng 10_000) in
  let reference = Array.copy data in
  Array.sort compare reference;
  List.iter
    (fun procs ->
      let sim, _ = Algorithms.Hyperquicksort.sort (Backend.sim ()) ~procs data in
      let v, _ = Algorithms.Hyperquicksort.sort backend ~procs data in
      Alcotest.(check bool) (Printf.sprintf "sim output sorted at p=%d" procs) true (sim = reference);
      Alcotest.(check bool) (Printf.sprintf "output equal to sim at p=%d" procs) true (v = sim))
    [ 1; 2; 4 ]

let cannon_summa_equal_sim backend =
  let n = 12 in
  let a = Algorithms.Cannon.random_matrix ~seed:7 n in
  let b = Algorithms.Cannon.random_matrix ~seed:8 n in
  let sim_c, _ = Algorithms.Cannon.multiply (Backend.sim ()) ~grid:2 a b in
  let c, _ = Algorithms.Cannon.multiply backend ~grid:2 a b in
  Alcotest.(check bool) "cannon blocks agree" true (sim_c = c);
  let sim_s, _ = Algorithms.Summa.multiply (Backend.sim ()) ~grid:2 a b in
  let s, _ = Algorithms.Summa.multiply backend ~grid:2 a b in
  Alcotest.(check bool) "summa blocks agree" true (sim_s = s);
  Alcotest.(check bool) "cannon = summa" true (sim_c = sim_s)

(* jacobi / heat2d / cg: bitwise-identical fixed points and iteration
   counts — same program body, same collective trees, same float
   operation order. *)
let solvers_equal_sim backend =
  let f = Array.make 32 1.0 in
  let jacobi backend =
    fst (Algorithms.Jacobi.solve backend ~procs:4 ~tol:1e-6 ~max_iter:500 f ~left:0.0 ~right:1.0)
  in
  let j_sim = jacobi (Backend.sim ()) and j = jacobi backend in
  Alcotest.(check bool) "jacobi solutions identical" true
    (j_sim.Algorithms.Jacobi.solution = j.Algorithms.Jacobi.solution);
  Alcotest.(check int) "jacobi same iteration count" j_sim.Algorithms.Jacobi.iterations
    j.Algorithms.Jacobi.iterations;
  let hf = Algorithms.Heat2d.manufactured_f 12 in
  let heat2d backend = fst (Algorithms.Heat2d.solve backend ~procs:4 ~tol:1e-4 ~max_iter:300 hf) in
  let h_sim = heat2d (Backend.sim ()) and h = heat2d backend in
  Alcotest.(check bool) "heat2d fields identical" true
    (h_sim.Algorithms.Heat2d.solution = h.Algorithms.Heat2d.solution);
  Alcotest.(check int) "heat2d same iteration count" h_sim.Algorithms.Heat2d.iterations
    h.Algorithms.Heat2d.iterations;
  let b = Array.init 64 (fun i -> float_of_int (i mod 7) /. 7.0) in
  let cg backend = fst (Algorithms.Cg.solve backend ~procs:4 ~tol:1e-8 ~max_iter:200 b) in
  let c_sim = cg (Backend.sim ()) and c = cg backend in
  Alcotest.(check bool) "cg solutions identical" true
    (c_sim.Algorithms.Cg.solution = c.Algorithms.Cg.solution);
  Alcotest.(check int) "cg same iteration count" c_sim.Algorithms.Cg.iterations
    c.Algorithms.Cg.iterations

(* One algorithm module's SPMD program, as a function of the backend; the
   output comes back marshalled, so every float must match bit for bit. *)
type program = { run : 's. 's Backend.t -> string }

let algorithm_programs =
  let module A = Algorithms in
  let out (v, _) = Marshal.to_string v [] in
  let rng = Runtime.Xoshiro.of_seed 16 in
  let ints = Runtime.Xoshiro.int_array rng ~len:1000 ~bound:100_000 in
  let floats = Runtime.Xoshiro.float_array rng ~len:1000 ~bound:1.0 in
  let signal = A.Fft.random_signal ~seed:3 256 in
  let a, b = A.Gauss.random_system ~seed:5 24 in
  let points, _ = A.Kmeans.blobs ~seed:7 ~k:3 ~per_cluster:50 in
  let init = Array.init 3 (fun i -> points.(i * 50)) in
  let bodies = A.Nbody.random_bodies ~seed:9 64 in
  let jobs = A.Farm_sim.skewed_spec ~njobs:40 ~skew:8 in
  [
    ("bitonic", { run = (fun be -> out (A.Bitonic.sort be ~procs:4 ints)) });
    ("odd-even", { run = (fun be -> out (A.Odd_even.sort be ~procs:4 ints)) });
    ("sample sort", { run = (fun be -> out (A.Sample_sort.sort be ~procs:4 ints)) });
    ("fft", { run = (fun be -> out (A.Fft.fft be ~procs:4 signal)) });
    ("gauss", { run = (fun be -> out (A.Gauss.solve be ~procs:3 a b)) });
    ( "histogram",
      { run = (fun be -> out (A.Histogram.histogram be ~procs:4 ~buckets:16 ~lo:0.0 ~hi:1.0 floats)) }
    );
    ("kmeans", { run = (fun be -> out (A.Kmeans.run be ~procs:4 ~k:3 points ~init)) });
    ("line of sight", { run = (fun be -> out (A.Line_of_sight.visible be ~procs:4 floats)) });
    ("nbody", { run = (fun be -> out (A.Nbody.accelerations be ~procs:4 bodies)) });
    ("static farm", { run = (fun be -> out (A.Farm_sim.static be ~procs:4 jobs)) });
  ]

let algorithms_equal_sim backend =
  List.iter
    (fun (name, p) ->
      Alcotest.(check bool) (name ^ " output equal to sim") true
        (p.run backend = p.run (Backend.sim ())))
    algorithm_programs

(* --- chaos ------------------------------------------------------------------ *)

(* Delay/reorder within the per-(src,tag) FIFO relaxation never changes a
   collective's values. *)
let chaos_delays_preserve_values backend =
  List.iter
    (fun procs ->
      let bare, _ = Spmd.run backend ~procs collectives in
      List.iter
        (fun seed ->
          let chaos = Chaos.delays ~seed ~prob:0.5 ~max_hold:3 () in
          let v, _ = Spmd.run backend ~procs ~chaos collectives in
          Alcotest.(check bool) (Printf.sprintf "p=%d seed=%d" procs seed) true (v = bare))
        [ 1; 7; 42 ])
    [ 2; 4; 8 ]

(* The zero-fault wrap changes no value; returns the bare and wrapped
   stats for engine-specific identity checks. *)
let chaos_none_identity backend =
  let bare, s0 = Spmd.run backend ~procs:4 collectives in
  let wrapped, s1 = Spmd.run backend ~procs:4 ~chaos:Chaos.none collectives in
  Alcotest.(check bool) "Chaos.none changes no value" true (bare = wrapped);
  (s0, s1)

(* --- the dynamic farm ---------------------------------------------------- *)

let farm_expected njobs = Array.init njobs (fun i -> i * i)

(* recv_any at the master; results are indexed, so a nondeterministic
   interleaving does not show.  Returns each run's stats. *)
let dynamic_farm ?chaos backend =
  List.map
    (fun procs ->
      let spec = Algorithms.Farm_sim.skewed_spec ~njobs:40 ~skew:8 in
      let got, stats = Algorithms.Farm_sim.dynamic backend ?chaos ~procs spec in
      Alcotest.(check bool) (Printf.sprintf "all jobs done once at p=%d" procs) true
        (got = farm_expected 40);
      stats)
    [ 2; 4 ]

(* Rank 2 fail-stops on its 5th communication operation (mid-job); the
   master's grace timeouts detect the silence and re-deal its job.  On the
   real engines [work] is free, so instant jobs could let the first workers
   drain the queue before rank 2 reaches its 5th operation; a couple of
   real milliseconds per job keeps it in play. *)
let farm_survives_worker_crash backend =
  let spec = Algorithms.Farm_sim.skewed_spec ~njobs:24 ~skew:6 in
  let spec =
    {
      spec with
      run =
        (fun i ->
          Unix.sleepf 0.002;
          spec.run i);
    }
  in
  let chaos = { Chaos.none with Chaos.crashes = [ (2, 5) ] } in
  let got, stats = Algorithms.Farm_sim.dynamic backend ~procs:4 ~grace:0.5 ~chaos spec in
  Alcotest.(check bool) "all jobs done exactly once" true (got = farm_expected 24);
  stats

(* --- the contract group, the same on every engine --------------------------- *)

let contract_group backend =
  ( "contract",
    [
      Alcotest.test_case "argument checks" `Quick (fun () -> argument_checks backend);
      Alcotest.test_case "error chain raises root cause" `Quick (fun () ->
          rank_error_chain backend);
      Alcotest.test_case "scalar pipeline input" `Quick (fun () -> spmd_exec_scalar_input backend);
    ] )

(* --- every value-level case under a chaos schedule ------------------------ *)

let value_cases ~chaos backend =
  [
    ("single rank", fun () -> ignore (single_rank ~chaos backend));
    ("ping pong", fun () -> ignore (ping_pong ~chaos backend));
    ("tag discipline out of order", fun () -> out_of_order_tags ~chaos backend);
    ("recv timeout fires", fun () -> ignore (timeout_fires ~chaos backend));
    ("in-time delivery beats deadline", fun () -> ignore (in_time_delivery ~chaos backend));
    ("timed recv from crashed peer", fun () -> timed_recv_from_crashed_peer ~chaos backend);
    ("crash is fail-stop", fun () -> ignore (crash_is_fail_stop ~chaos backend));
    ("collectives equal sim", fun () -> collectives_equal_sim ~chaos backend);
    ("rooted collectives + slices equal sim", fun () -> rooted_collectives_equal_sim ~chaos backend);
    ("reduce root sweep", fun () -> reduce_root_sweep ~chaos backend);
    ("dynamic farm", fun () -> ignore (dynamic_farm ~chaos backend));
  ]

(* The value-level cases under the zero-fault wrap ("chaos-none") and
   under the delay schedule of seed 7 ("chaos-7").  Group names stay short:
   a longer one widens the column every result row is printed in, and so
   changes how long test names are truncated. *)
let chaos_groups backend =
  List.map
    (fun (group, chaos) ->
      ( group,
        List.map
          (fun (name, f) -> Alcotest.test_case name `Quick f)
          (value_cases ~chaos backend) ))
    [ ("chaos-none", Chaos.none); ("chaos-7", Chaos.delays ~seed:7 ()) ]
