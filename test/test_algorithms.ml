(* Tests for the paper's applications: hyperquicksort (three renderings),
   Gauss–Jordan (host SCL, simulator, sequential baseline), plus the
   sequential kernels they are built from. *)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

open Algorithms

let sim = Machine.Backend.sim ()
let mc = Machine.Backend.multicore ()

(* --- sequential kernels ---------------------------------------------------- *)

let prop_quicksort_sorts =
  qtest "SEQ_QUICKSORT sorts any input"
    QCheck.(list int)
    (fun xs ->
      let a = Array.of_list xs in
      let sorted = Seq_kernels.quicksort a in
      let expect = Array.copy a in
      Array.sort compare expect;
      sorted = expect)

(* Below the insertion cutoff and past it, where the radix passes deal
   between buffers: none of them may be the caller's.  Ordered inputs,
   which take no pass, still come back as fresh arrays. *)
let test_quicksort_preserves_input () =
  let a = [| 3; 1; 2 |] in
  ignore (Seq_kernels.quicksort a);
  Alcotest.(check (array int)) "input untouched" [| 3; 1; 2 |] a;
  let rng = Random.State.make [| 10_000 |] in
  let a = Array.init 10_000 (fun _ -> Random.State.bits rng) in
  let saved = Array.copy a in
  let sorted = Seq_kernels.quicksort a in
  Alcotest.(check (array int)) "10 000 keys untouched" saved a;
  List.iter
    (fun (what, keys) ->
      let out = Seq_kernels.quicksort keys in
      Alcotest.(check bool) (what ^ ": a fresh array") true (out != keys);
      Alcotest.(check (array int)) what sorted out)
    [ ("presorted", sorted); ("reversed", Array.init 10_000 (fun i -> sorted.(9_999 - i))) ]

let test_midvalue () =
  Alcotest.(check (option int)) "empty" None (Seq_kernels.midvalue [||]);
  Alcotest.(check (option int)) "odd" (Some 2) (Seq_kernels.midvalue [| 1; 2; 3 |]);
  Alcotest.(check (option int)) "even picks upper middle" (Some 3) (Seq_kernels.midvalue [| 1; 2; 3; 4 |])

let prop_split_at =
  qtest "SPLIT: low <= pivot < high, nothing lost"
    QCheck.(pair (list small_int) small_int)
    (fun (xs, pivot) ->
      let a = Seq_kernels.quicksort (Array.of_list xs) in
      let lo, hi = Seq_kernels.split_at pivot a in
      Array.for_all (fun x -> x <= pivot) lo
      && Array.for_all (fun x -> x > pivot) hi
      && Array.append lo hi = a)

let prop_merge =
  qtest "MERGE of two sorted arrays is their sorted union"
    QCheck.(pair (list small_int) (list small_int))
    (fun (xs, ys) ->
      let a = Seq_kernels.quicksort (Array.of_list xs) in
      let b = Seq_kernels.quicksort (Array.of_list ys) in
      let m = Seq_kernels.merge a b in
      Seq_kernels.is_sorted m
      && m = Seq_kernels.quicksort (Array.append a b))

let test_is_sorted () =
  let check what expect a = Alcotest.(check bool) what expect (Seq_kernels.is_sorted a) in
  check "sorted" true [| 1; 2; 2; 5 |];
  check "unsorted" false [| 2; 1 |];
  check "empty" true [||];
  check "one key" true [| 7 |];
  check "descent at the first position" false [| 3; 1; 4; 5; 9 |];
  check "descent at the last position" false [| 1; 3; 4; 9; 5 |];
  check "min_int to max_int" true [| min_int; -1; 0; max_int |]

let test_partial_pivot () =
  Alcotest.(check int) "largest |v| below row" 2
    (Seq_kernels.partial_pivot ~row:1 [| 9.0; 1.0; -5.0; 4.0 |])

let test_gauss_seq_small () =
  (* 2x + y = 5; x - y = 1  =>  x = 2, y = 1 *)
  let x = Seq_kernels.gauss_seq [| [| 2.0; 1.0 |]; [| 1.0; -1.0 |] |] [| 5.0; 1.0 |] in
  Alcotest.(check bool) "x" true (Float.abs (x.(0) -. 2.0) < 1e-9);
  Alcotest.(check bool) "y" true (Float.abs (x.(1) -. 1.0) < 1e-9)

let test_gauss_seq_singular () =
  Alcotest.(check bool) "singular detected" true
    (try
       ignore (Seq_kernels.gauss_seq [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] [| 1.0; 2.0 |]);
       false
     with Failure _ -> true)

let test_gauss_seq_needs_pivoting () =
  (* Zero on the diagonal: only solvable with row interchange. *)
  let a = [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let x = Seq_kernels.gauss_seq a [| 3.0; 7.0 |] in
  Alcotest.(check bool) "solved via pivoting" true
    (Float.abs (x.(0) -. 7.0) < 1e-9 && Float.abs (x.(1) -. 3.0) < 1e-9)

let prop_matmul_identity =
  qtest ~count:30 "matmul with identity"
    QCheck.(int_range 1 8)
    (fun n ->
      let rng = Runtime.Xoshiro.of_seed n in
      let a = Array.init n (fun _ -> Array.init n (fun _ -> Runtime.Xoshiro.float rng 10.0)) in
      let id = Array.init n (fun i -> Array.init n (fun j -> if i = j then 1.0 else 0.0)) in
      let c = Seq_kernels.matmul a id in
      Array.for_all2 (fun r1 r2 -> Array.for_all2 (fun x y -> Float.abs (x -. y) < 1e-12) r1 r2) c a)

(* --- hyperquicksort --------------------------------------------------------- *)

let sorted_copy a =
  let b = Array.copy a in
  Array.sort compare b;
  b

let prop_hqs_recursive_sorts =
  qtest ~count:60 "recursive SCL hyperquicksort sorts"
    QCheck.(pair (list int) (int_range 0 4))
    (fun (xs, dims) ->
      let a = Array.of_list xs in
      Hyperquicksort.sort_recursive ~dims a = sorted_copy a)

let prop_hqs_flat_sorts =
  qtest ~count:60 "flattened SCL hyperquicksort sorts"
    QCheck.(pair (list int) (int_range 0 4))
    (fun (xs, dims) ->
      let a = Array.of_list xs in
      Hyperquicksort.sort_flat ~dims a = sorted_copy a)

let prop_hqs_flat_equals_recursive =
  qtest ~count:60 "flattened = recursive (the flattening transformation is sound)"
    QCheck.(pair (list int) (int_range 0 4))
    (fun (xs, dims) ->
      let a = Array.of_list xs in
      Hyperquicksort.sort_flat ~dims a = Hyperquicksort.sort_recursive ~dims a)

let prop_hqs_sim_sorts =
  qtest ~count:25 "simulated hyperquicksort sorts"
    QCheck.(pair (list int) (int_range 0 3))
    (fun (xs, dims) ->
      let a = Array.of_list xs in
      let sorted, _ = Hyperquicksort.sort sim ~procs:(1 lsl dims) a in
      sorted = sorted_copy a)

let test_hqs_adversarial_inputs () =
  (* Skewed inputs that can empty chunks / leaders. *)
  List.iter
    (fun a ->
      let expect = sorted_copy a in
      Alcotest.(check (array int)) "recursive" expect (Hyperquicksort.sort_recursive ~dims:3 a);
      Alcotest.(check (array int)) "flat" expect (Hyperquicksort.sort_flat ~dims:3 a);
      let s, _ = Hyperquicksort.sort sim ~procs:8 a in
      Alcotest.(check (array int)) "sim" expect s)
    [
      [||];
      [| 5 |];
      Array.make 100 7;
      Array.init 100 (fun i -> -i);
      Array.init 100 (fun i -> i);
      Array.append (Array.make 50 0) (Array.make 50 1000);
      [| 3; 1 |];
    ]

let test_hqs_sim_rejects_non_power_of_two () =
  Alcotest.(check bool) "procs=6 rejected" true
    (try
       ignore (Hyperquicksort.sort sim ~procs:6 [| 1 |]);
       false
     with Invalid_argument _ -> true)

let test_hqs_pool_backend () =
  let pool = Runtime.Pool.create ~num_domains:3 () in
  Fun.protect
    ~finally:(fun () -> Runtime.Pool.teardown pool)
    (fun () ->
      let exec = Scl.Exec.on_pool pool in
      let rng = Runtime.Xoshiro.of_seed 99 in
      let a = Runtime.Xoshiro.int_array rng ~len:20_000 ~bound:1_000_000 in
      Alcotest.(check (array int)) "pool-backed recursive" (sorted_copy a)
        (Hyperquicksort.sort_recursive ~exec ~dims:3 a);
      Alcotest.(check (array int)) "pool-backed flat" (sorted_copy a)
        (Hyperquicksort.sort_flat ~exec ~dims:3 a))

let test_hqs_sim_speedup_shape () =
  (* The Table 1 / Figure 3 claim: simulated time decreases with processor
     count on the paper's workload, and the speedup is sub-linear. *)
  let rng = Runtime.Xoshiro.of_seed 4 in
  let a = Runtime.Xoshiro.int_array rng ~len:20_000 ~bound:1_000_000 in
  let time p =
    let _, stats = Hyperquicksort.sort sim ~procs:p a in
    stats.Machine.Sim.makespan
  in
  let t1 = time 1 and t4 = time 4 and t16 = time 16 in
  Alcotest.(check bool) "monotone speedup" true (t16 < t4 && t4 < t1);
  let s16 = t1 /. t16 in
  Alcotest.(check bool) "sub-linear but real" true (s16 > 4.0 && s16 < 16.0)

let test_hqs_sim_deterministic () =
  let rng = Runtime.Xoshiro.of_seed 5 in
  let a = Runtime.Xoshiro.int_array rng ~len:5_000 ~bound:100_000 in
  let _, s1 = Hyperquicksort.sort sim ~procs:8 a in
  let _, s2 = Hyperquicksort.sort sim ~procs:8 a in
  Alcotest.(check bool) "same makespan" true (s1.Machine.Sim.makespan = s2.Machine.Sim.makespan);
  Alcotest.(check int) "same messages" s1.Machine.Sim.total_msgs s2.Machine.Sim.total_msgs

let prop_hqs_flatint_equals_boxed_sim =
  qtest ~count:25 "flat-int sim = boxed sim (values and costs)"
    QCheck.(pair (list int) (int_range 0 3))
    (fun (xs, dims) ->
      let a = Array.of_list xs in
      let procs = 1 lsl dims in
      let boxed, bs = Hyperquicksort.sort sim ~procs a in
      let flat, fs = Hyperquicksort.sort_flatint sim ~procs a in
      flat = boxed && fs.Machine.Sim.total_msgs = bs.Machine.Sim.total_msgs)

let test_hqs_flatint_adversarial () =
  List.iter
    (fun a ->
      let expect = sorted_copy a in
      let s, _ = Hyperquicksort.sort_flatint sim ~procs:8 a in
      Alcotest.(check (array int)) "flat-int sim" expect s)
    [
      [||];
      [| 5 |];
      Array.make 100 7;
      Array.init 100 (fun i -> -i);
      Array.append (Array.make 50 0) (Array.make 50 1000);
    ]

let test_hqs_flatint_multicore () =
  (* the catalogue's case: the boxed tier's output on sim, the keys left as they were *)
  Engine_contract.oracle ~only:[ "hyperquicksort flat-int" ] Prop.Engine_oracle.tiers mc;
  (* and a larger input than the catalogue draws *)
  let rng = Runtime.Xoshiro.of_seed 31 in
  let a = Runtime.Xoshiro.int_array rng ~len:10_000 ~bound:1_000_000 in
  let sorted, _ = Hyperquicksort.sort_flatint mc ~procs:4 a in
  Alcotest.(check (array int)) "flat-int multicore" (sorted_copy a) sorted;
  Alcotest.(check bool) "procs=6 rejected" true
    (try
       ignore (Hyperquicksort.sort_flatint mc ~procs:6 [| 1 |]);
       false
     with Invalid_argument _ -> true)

(* The flat-int program's first merge writes into the buffer the local
   sort used as scratch; on multicore the halves later rounds send from
   it are read by reference, so a second merge into it would overwrite
   keys a partner may not have read yet.  Both engine placements (ranks
   interleaved on one domain, spread over several), with and without
   held and reordered sends, must give the simulator's output.
   Presorted and reversed blocks skew the first split far past the
   buffer's 1/16 headroom, so their fuller ranks take the fresh-storage
   fallback. *)
let test_hqs_flatint_multicore_merge_reuse () =
  let rng = Runtime.Xoshiro.of_seed 24 in
  let uniform = Runtime.Xoshiro.int_array rng ~len:6_000 ~bound:1_000_000 in
  let presorted = sorted_copy uniform in
  let inputs =
    [
      ("uniform", uniform);
      ("presorted", presorted);
      ("reversed", Array.init 6_000 (fun i -> presorted.(5_999 - i)));
      ("few distinct", Array.map (fun x -> x mod 5) uniform);
    ]
  in
  List.iter
    (fun procs ->
      List.iter
        (fun (name, a) ->
          let expect, _ = Hyperquicksort.sort_flatint sim ~procs a in
          Alcotest.(check (array int)) "sim sorts" (sorted_copy a) expect;
          List.iter
            (fun (engine, backend) ->
              let check what (got, _) =
                Alcotest.(check (array int))
                  (Printf.sprintf "%s %s, %s keys, p=%d" engine what name procs)
                  expect got
              in
              check "bare" (Hyperquicksort.sort_flatint backend ~procs a);
              List.iter
                (fun seed ->
                  let chaos = Machine.Chaos.delays ~seed ~prob:0.5 () in
                  check (Printf.sprintf "chaos seed %d" seed)
                    (Hyperquicksort.sort_flatint backend ~chaos ~procs a))
                [ 1; 7; 42 ])
            [ ("multicore", mc); ("1-domain", Machine.Backend.multicore ~domains:1 ()) ])
        inputs)
    [ 4; 8 ]

(* --- the run-scoped workspace ([Comm.workspace], [Spmd.run_flat]) ------- *)

module Ws = Machine.Workspace

type backend = B : string * 's Machine.Backend.t -> backend

let ws_backends = [ B ("sim", sim); B ("multicore", mc) ]

(* [f ()] with the [workspace.lent] and [workspace.reused] counts it took. *)
let lent_reused f =
  Obs.enable ();
  let count name = Option.value ~default:0 (Obs.Metrics.counter_value name) in
  let l0 = count "workspace.lent" and r0 = count "workspace.reused" in
  let v = f () in
  (v, count "workspace.lent" - l0, count "workspace.reused" - r0)

let all_equal (s : Scl.Flat.int1) v =
  let ok = ref true in
  for i = 0 to Scl.Flat.length s - 1 do
    if Scl.Flat.get s i <> v then ok := false
  done;
  !ok

(* Every rank lends one buffer per size, fills it with [v rank], and
   checks after a barrier that its buffers still hold those values: a
   buffer lent twice in the run, to one rank or to two, fails it. Rank
   0 returns its buffers. *)
let lend_fill_check sizes v c =
  let me = Machine.Comm.rank c in
  let bufs =
    List.mapi
      (fun i n ->
        let (s : Scl.Flat.int1) = Machine.Comm.workspace c Scl.Flat.int n in
        Scl.Flat.fill s (v me + i);
        s)
      sizes
  in
  Machine.Comm.barrier c;
  List.iteri (fun i s -> if not (all_equal s (v me + i)) then failwith "a buffer was lent twice") bufs;
  bufs

let lend_run backend ~procs sizes =
  fst
    (Scl_sim.Spmd.run_flat backend ~procs ~kind:Scl.Flat.int (fun c ->
         let bufs = lend_fill_check sizes (fun me -> 10 * me) c in
         if Machine.Comm.rank c = 0 then Some (Array.of_list bufs) else None))

let test_ws_second_run_reuses () =
  let a = Runtime.Xoshiro.int_array (Runtime.Xoshiro.of_seed 25) ~len:5_000 ~bound:1_000_000 in
  let expect = sorted_copy a in
  List.iter
    (fun (B (engine, backend)) ->
      List.iter
        (fun procs ->
          let what = Printf.sprintf "%s p=%d" engine procs in
          let run () = fst (Hyperquicksort.sort_flatint backend ~procs a) in
          Alcotest.(check (array int)) ("first run " ^ what) expect (run ());
          let got, lent, reused = lent_reused run in
          Alcotest.(check (array int)) ("second run " ^ what) expect got;
          Alcotest.(check bool) ("input copy and scratches lent " ^ what) true (lent > procs);
          Alcotest.(check int) ("every buffer reused " ^ what) lent reused;
          Alcotest.(check int) ("the free list holds the run's buffers " ^ what) lent
            (fst (Ws.retained ())))
        [ 1; 2; 4; 8 ])
    ws_backends

exception Boom

(* A run that raises gives nothing back: its buffers may still be
   reachable from wherever a rank left them. *)
let test_ws_raising_run_recycles_nothing () =
  List.iter
    (fun (B (engine, backend)) ->
      let sizes = [ 300; 700 ] in
      ignore (lend_run backend ~procs:2 sizes);
      Alcotest.(check int) (engine ^ ": warm free list") 4 (fst (Ws.retained ()));
      let stash = ref [] and m = Mutex.create () in
      let raised =
        match
          Scl_sim.Spmd.run_flat backend ~procs:2 ~kind:Scl.Flat.int (fun c ->
              let bufs = lend_fill_check sizes (fun _ -> 7) c in
              Mutex.protect m (fun () -> stash := List.combine bufs [ 7; 8 ] @ !stash);
              raise Boom)
        with
        | _ -> false
        | exception Boom -> true
      in
      Alcotest.(check bool) (engine ^ ": the run raised") true raised;
      Alcotest.(check (pair int int)) (engine ^ ": nothing recycled") (0, 0) (Ws.retained ());
      for _ = 1 to 2 do
        ignore (lend_run backend ~procs:2 sizes)
      done;
      List.iter
        (fun (s, v) -> Alcotest.(check bool) (engine ^ ": dropped buffer untouched") true (all_equal s v))
        !stash)
    ws_backends

(* [Spmd.run] never recycles: its result may be a workspace slice. *)
let test_ws_run_result_survives () =
  List.iter
    (fun (B (engine, backend)) ->
      let (kept : Scl.Flat.int1), _ =
        Scl_sim.Spmd.run backend ~procs:2 (fun c ->
            let (s : Scl.Flat.int1) = Machine.Comm.workspace c Scl.Flat.int 500 in
            Scl.Flat.fill s (1 + Machine.Comm.rank c);
            Some s)
      in
      for _ = 1 to 3 do
        ignore (lend_run backend ~procs:2 [ 500; 500 ])
      done;
      Alcotest.(check bool) (engine ^ ": run's result intact") true (all_equal kept 1))
    ws_backends

(* Two domains sort at once, each on a one-domain multicore engine under
   delays, borrowing from and returning to the one free list. *)
let test_ws_concurrent_sorts () =
  let mc1 = Machine.Backend.multicore ~domains:1 () in
  let keys i = Runtime.Xoshiro.int_array (Runtime.Xoshiro.of_seed (40 + i)) ~len:6_000 ~bound:1_000_000 in
  let sorts i () =
    let a = keys i in
    let expect = sorted_copy a in
    List.for_all
      (fun seed ->
        let chaos = Machine.Chaos.delays ~seed ~prob:0.5 () in
        fst (Hyperquicksort.sort_flatint mc1 ~chaos ~procs:4 a) = expect)
      [ 1; 2; 3; 4; 5; 6 ]
  in
  let other = Domain.spawn (sorts 1) in
  let mine = sorts 0 () in
  Alcotest.(check bool) "this domain's sorts" true mine;
  Alcotest.(check bool) "the other domain's sorts" true (Domain.join other)

(* The free list holds what the last run lent and no more: growing, then
   shrinking runs never leave more buffers than one run lent, nor more
   bytes than the largest run left. *)
let test_ws_free_list_bounded () =
  List.iter
    (fun (B (engine, backend)) ->
      let largest = ref 0 in
      List.iter
        (fun n ->
          let what = Printf.sprintf "%s n=%d" engine n in
          let _, lent, _ = lent_reused (fun () -> lend_run backend ~procs:2 [ n; n / 2 ]) in
          let count, bytes = Ws.retained () in
          Alcotest.(check int) ("one run's buffers " ^ what) lent count;
          if n = 8000 then largest := bytes
          else if !largest > 0 then
            Alcotest.(check bool) ("no more bytes than the largest run " ^ what) true (bytes <= !largest))
        [ 100; 8000; 4000; 2000; 1000; 100 ];
      let a = Runtime.Xoshiro.int_array (Runtime.Xoshiro.of_seed 26) ~len:8_000 ~bound:1_000_000 in
      List.iter
        (fun n ->
          let a = Array.sub a 0 n in
          let got, lent, _ = lent_reused (fun () -> fst (Hyperquicksort.sort_flatint backend ~procs:4 a)) in
          Alcotest.(check (array int)) (Printf.sprintf "%s sorts n=%d" engine n) (sorted_copy a) got;
          Alcotest.(check int) (Printf.sprintf "%s one sort's buffers n=%d" engine n) lent
            (fst (Ws.retained ())))
        [ 8000; 4000; 2000; 1000; 500 ])
    ws_backends

let test_ws_rejects () =
  let run f = Scl_sim.Spmd.run sim ~procs:1 (fun c -> Some (f c)) in
  Alcotest.check_raises "float32" (Invalid_argument "Comm.workspace: kind must be float64 or int")
    (fun () -> ignore (run (fun c -> ignore (Machine.Comm.workspace c Bigarray.float32 4))));
  Alcotest.check_raises "negative" (Invalid_argument "Comm.workspace: negative length") (fun () ->
      ignore (run (fun c -> ignore (Machine.Comm.workspace c Scl.Flat.int (-1)))))

let test_hqs_traced_figure2 () =
  (* The Figure 2 regeneration: 32 values on a 2-cube, with stage notes. *)
  let rng = Runtime.Xoshiro.of_seed 2 in
  let a = Runtime.Xoshiro.int_array rng ~len:32 ~bound:100 in
  let trace = Machine.Trace.create () in
  let sorted, _ = Hyperquicksort.sort (Machine.Backend.sim ~trace ()) ~procs:4 a in
  let notes = Machine.Trace.notes trace in
  Alcotest.(check (array int)) "sorted" (sorted_copy a) sorted;
  Alcotest.(check bool) "has stage notes" true (List.length notes >= 12);
  Alcotest.(check bool) "mentions pivots" true
    (List.exists (fun (_, _, s) -> String.length s >= 5 && String.sub s 0 5 = "group") notes)

let test_hqs_flatint_figure2_notes () =
  (* one program body: the flat tier emits the boxed tier's Figure 2
     notes, rank by rank (only the priced bytes, and so the times, differ) *)
  let rng = Runtime.Xoshiro.of_seed 2 in
  let a = Runtime.Xoshiro.int_array rng ~len:32 ~bound:100 in
  let notes sort =
    let trace = Machine.Trace.create () in
    ignore (sort (Machine.Backend.sim ~trace ()));
    let by_rank (r1, _) (r2, _) = compare r1 r2 in
    List.stable_sort by_rank (List.map (fun (_, rank, s) -> (rank, s)) (Machine.Trace.notes trace))
  in
  let boxed = notes (fun b -> Hyperquicksort.sort b ~procs:4 a) in
  let flat = notes (fun b -> Hyperquicksort.sort_flatint b ~procs:4 a) in
  Alcotest.(check bool) "boxed notes present" true (List.length boxed >= 12);
  Alcotest.(check (list (pair int string))) "flat notes = boxed notes" boxed flat

let test_hqs_flatint_notes_skewed () =
  (* inputs that leave members, groups or the whole cube empty: a group
     with no pivot skips its exchange and its notes on both tiers alike *)
  let notes sort =
    let trace = Machine.Trace.create () in
    ignore (sort (Machine.Backend.sim ~trace ()));
    let by_rank (r1, _) (r2, _) = compare r1 r2 in
    List.stable_sort by_rank (List.map (fun (_, rank, s) -> (rank, s)) (Machine.Trace.notes trace))
  in
  List.iter
    (fun (procs, a) ->
      let boxed = notes (fun b -> Hyperquicksort.sort b ~procs a) in
      let flat = notes (fun b -> Hyperquicksort.sort_flatint b ~procs a) in
      Alcotest.(check (list (pair int string)))
        (Printf.sprintf "n=%d p=%d" (Array.length a) procs)
        boxed flat)
    [
      (8, [||]);
      (8, [| 5 |]);
      (4, [| 3; 1 |]);
      (8, Array.make 20 7);
      (2, Array.append (Array.make 6 0) (Array.make 6 1000));
      (1, [| 4; 2; 9 |]);
    ]

let test_hqs_flatint_work_times () =
  (* one body, one set of flops charges: each rank's simulated compute
     time is the boxed tier's to the bit *)
  let rng = Runtime.Xoshiro.of_seed 17 in
  List.iter
    (fun (n, procs) ->
      let a = Runtime.Xoshiro.int_array rng ~len:n ~bound:1000 in
      let _, bs = Hyperquicksort.sort sim ~procs a in
      let _, fs = Hyperquicksort.sort_flatint sim ~procs a in
      Alcotest.(check (array (float 0.0)))
        (Printf.sprintf "work times n=%d p=%d" n procs)
        bs.Machine.Sim.work_times fs.Machine.Sim.work_times)
    [ (0, 4); (1, 2); (100, 1); (300, 4); (1000, 8) ]

let test_hqs_flatint_input_untouched () =
  (* the root copies the keys once; every rank sorts its own copy *)
  let rng = Runtime.Xoshiro.of_seed 23 in
  let a = Runtime.Xoshiro.int_array rng ~len:500 ~bound:10_000 in
  let before = Array.copy a in
  let check name sorted =
    Alcotest.(check (array int)) (name ^ ": sorted") (sorted_copy before) sorted;
    Alcotest.(check (array int)) (name ^ ": input unchanged") before a
  in
  check "sim" (fst (Hyperquicksort.sort_flatint sim ~procs:4 a));
  check "multicore"
    (fst (Hyperquicksort.sort_flatint (Machine.Backend.multicore ~domains:1 ()) ~procs:4 a))

(* --- Gauss–Jordan ------------------------------------------------------------ *)

let test_gauss_scl_matches_seq () =
  let a, b = Gauss.random_system ~seed:11 40 in
  let x_seq = Seq_kernels.gauss_seq a b in
  let x_scl = Gauss.solve_scl ~parts:4 a b in
  Array.iteri
    (fun i v -> Alcotest.(check bool) (Printf.sprintf "x[%d]" i) true (Float.abs (v -. x_seq.(i)) < 1e-9))
    x_scl

let prop_gauss_scl_residual =
  qtest ~count:20 "host-SCL Gauss–Jordan solves random systems"
    QCheck.(pair (int_range 1 30) (int_range 1 8))
    (fun (n, parts) ->
      let a, b = Gauss.random_system ~seed:(n + (100 * parts)) n in
      let x = Gauss.solve_scl ~parts a b in
      Seq_kernels.residual a x b < 1e-8)

let prop_gauss_sim_residual =
  qtest ~count:10 "simulated Gauss–Jordan solves random systems"
    QCheck.(pair (int_range 1 24) (int_range 1 6))
    (fun (n, procs) ->
      let a, b = Gauss.random_system ~seed:(n * 31 + procs) n in
      let x, _ = Gauss.solve sim ~procs a b in
      Seq_kernels.residual a x b < 1e-8)

let test_gauss_sim_matches_scl () =
  let a, b = Gauss.random_system ~seed:3 20 in
  let x1 = Gauss.solve_scl ~parts:3 a b in
  let x2, _ = Gauss.solve sim ~procs:3 a b in
  Array.iteri
    (fun i v -> Alcotest.(check bool) (Printf.sprintf "x[%d]" i) true (Float.abs (v -. x2.(i)) < 1e-9))
    x1

let test_gauss_needs_pivoting_parallel () =
  let a = [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let x = Gauss.solve_scl ~parts:2 a [| 3.0; 7.0 |] in
  Alcotest.(check bool) "pivoted" true (Float.abs (x.(0) -. 7.0) < 1e-9);
  let x2, _ = Gauss.solve sim ~procs:2 a [| 3.0; 7.0 |] in
  Alcotest.(check bool) "pivoted (sim)" true (Float.abs (x2.(0) -. 7.0) < 1e-9)

let test_gauss_singular_parallel () =
  let a = [| [| 1.0; 1.0 |]; [| 2.0; 2.0 |] |] in
  Alcotest.(check bool) "singular detected in SCL version" true
    (try
       ignore (Gauss.solve_scl ~parts:2 a [| 1.0; 2.0 |]);
       false
     with Failure _ -> true)

let test_gauss_sim_scaling () =
  let a, b = Gauss.random_system ~seed:8 64 in
  let time p =
    let _, stats = Gauss.solve sim ~procs:p a b in
    stats.Machine.Sim.makespan
  in
  let t1 = time 1 and t4 = time 4 in
  Alcotest.(check bool) "parallel is faster" true (t4 < t1)

(* --- Cannon ------------------------------------------------------------------ *)

let mat_close a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun r1 r2 -> Array.for_all2 (fun x y -> Float.abs (x -. y) < 1e-9) r1 r2) a b

let prop_cannon_scl_matches_seq =
  qtest ~count:25 "Cannon (host SCL) = sequential matmul"
    QCheck.(pair (int_range 1 5) (int_range 1 4))
    (fun (q, scale) ->
      let n = q * scale in
      let a = Cannon.random_matrix ~seed:(n + q) n in
      let b = Cannon.random_matrix ~seed:(n * q) n in
      mat_close (Cannon.multiply_scl ~grid:q a b) (Seq_kernels.matmul a b))

let prop_cannon_sim_matches_seq =
  qtest ~count:12 "Cannon (simulated torus) = sequential matmul"
    QCheck.(pair (int_range 1 4) (int_range 1 3))
    (fun (q, scale) ->
      let n = q * scale in
      let a = Cannon.random_matrix ~seed:(7 * n) n in
      let b = Cannon.random_matrix ~seed:(13 * n) n in
      let c, _ = Cannon.multiply sim ~grid:q a b in
      mat_close c (Seq_kernels.matmul a b))

let test_cannon_rejects_bad_grid () =
  let a = Cannon.random_matrix ~seed:1 6 in
  Alcotest.(check bool) "grid must divide n" true
    (try
       ignore (Cannon.multiply_scl ~grid:4 a a);
       false
     with Invalid_argument _ -> true)

let test_cannon_sim_scaling () =
  let a = Cannon.random_matrix ~seed:2 48 and b = Cannon.random_matrix ~seed:3 48 in
  let time q =
    let _, s = Cannon.multiply sim ~grid:q a b in
    s.Machine.Sim.makespan
  in
  Alcotest.(check bool) "4x4 beats 1x1" true (time 4 < time 1)

(* On a 2x2 grid each result block is the sum of two block products, in
   whichever order, and a sum of two floats does not depend on it: Cannon
   and SUMMA give the same bits. *)
let test_cannon_equals_summa () =
  let a = Cannon.random_matrix ~seed:7 12 and b = Cannon.random_matrix ~seed:8 12 in
  let c, _ = Cannon.multiply sim ~grid:2 a b and s, _ = Summa.multiply sim ~grid:2 a b in
  Alcotest.(check bool) "cannon = summa" true (c = s)

(* --- Jacobi ------------------------------------------------------------------- *)

let vec_close a b = Array.for_all2 (fun x y -> Float.abs (x -. y) < 1e-6) a b

let test_jacobi_scl_matches_seq () =
  let f = Array.init 60 (fun j -> float_of_int (j mod 7)) in
  let r0 = Jacobi.solve_seq ~tol:1e-9 f ~left:1.0 ~right:(-2.0) in
  let r1 = Jacobi.solve_scl ~parts:4 ~tol:1e-9 f ~left:1.0 ~right:(-2.0) in
  Alcotest.(check bool) "solutions agree" true (vec_close r0.solution r1.solution);
  Alcotest.(check int) "same iteration count" r0.iterations r1.iterations

let prop_jacobi_sim_matches_seq =
  qtest ~count:8 "simulated Jacobi = sequential"
    QCheck.(pair (int_range 2 40) (int_range 1 6))
    (fun (n, procs) ->
      let f = Array.init n (fun j -> float_of_int ((j * 3 mod 5) - 2)) in
      let r0 = Jacobi.solve_seq ~tol:1e-7 ~max_iter:20_000 f ~left:0.5 ~right:0.25 in
      let r1, _ = Jacobi.solve sim ~procs ~tol:1e-7 ~max_iter:20_000 f ~left:0.5 ~right:0.25 in
      vec_close r0.solution r1.solution && r0.iterations = r1.iterations)

let test_jacobi_converges_to_analytic () =
  (* -u'' = pi^2 sin(pi x), u(0)=u(1)=0  =>  u = sin(pi x) *)
  let n = 150 in
  let pi = Float.pi in
  let f =
    Array.init n (fun j ->
        let x = float_of_int (j + 1) /. float_of_int (n + 1) in
        pi *. pi *. sin (pi *. x))
  in
  let r = Jacobi.solve_scl ~parts:3 ~tol:1e-10 ~max_iter:200_000 f ~left:0.0 ~right:0.0 in
  let err = ref 0.0 in
  Array.iteri
    (fun j v ->
      let x = float_of_int (j + 1) /. float_of_int (n + 1) in
      err := Float.max !err (Float.abs (v -. sin (pi *. x))))
    r.solution;
  Alcotest.(check bool) "close to sin(pi x)" true (!err < 1e-3)

let test_jacobi_max_iter_respected () =
  let f = Array.make 50 1.0 in
  let r = Jacobi.solve_scl ~parts:2 ~tol:0.0 ~max_iter:17 f ~left:0.0 ~right:0.0 in
  Alcotest.(check int) "stopped at cap" 17 r.iterations

let test_jacobi_empty () =
  let r = Jacobi.solve_scl ~parts:4 [||] ~left:0.0 ~right:0.0 in
  Alcotest.(check int) "no iterations" 0 r.iterations;
  let r2, _ = Jacobi.solve sim ~procs:3 [||] ~left:0.0 ~right:0.0 in
  Alcotest.(check (array (float 0.0))) "empty solution" [||] r2.solution

(* --- baseline sorts ------------------------------------------------------------ *)

let prop_psrs_scl_sorts =
  qtest ~count:40 "PSRS (host SCL) sorts"
    QCheck.(pair (list int) (int_range 1 8))
    (fun (xs, parts) ->
      let a = Array.of_list xs in
      Sample_sort.sort_scl ~parts a = sorted_copy a)

let prop_psrs_sim_sorts =
  qtest ~count:20 "PSRS (simulated) sorts"
    QCheck.(pair (list int) (int_range 1 6))
    (fun (xs, procs) ->
      let a = Array.of_list xs in
      let sorted, _ = Sample_sort.sort sim ~procs a in
      sorted = sorted_copy a)

let prop_bitonic_sim_sorts =
  qtest ~count:20 "bitonic (simulated) sorts"
    QCheck.(pair (list (int_bound 1_000_000)) (int_range 0 3))
    (fun (xs, dims) ->
      let a = Array.of_list xs in
      let sorted, _ = Bitonic.sort sim ~procs:(1 lsl dims) a in
      sorted = sorted_copy a)

let test_bitonic_rejects_sentinel () =
  Alcotest.(check bool) "max_int reserved" true
    (try
       ignore (Bitonic.sort sim ~procs:2 [| max_int |]);
       false
     with Invalid_argument _ -> true)

let test_bitonic_balanced_load () =
  (* Bitonic keeps blocks equal; hyperquicksort does not — both must still
     sort the skewed input. *)
  let a = Array.append (Array.make 100 1) (Array.make 10 999999) in
  let s1, _ = Bitonic.sort sim ~procs:4 a in
  let s2, _ = Hyperquicksort.sort sim ~procs:4 a in
  Alcotest.(check (array int)) "bitonic" (sorted_copy a) s1;
  Alcotest.(check (array int)) "hqs" (sorted_copy a) s2

let test_sort_comparison_shape () =
  (* The "best available speedup" context of Figure 3: hyperquicksort should
     not be slower than the full-volume baselines on the paper's workload. *)
  let rng = Runtime.Xoshiro.of_seed 21 in
  let a = Runtime.Xoshiro.int_array rng ~len:30_000 ~bound:1_000_000 in
  let t f =
    let _, (s : Machine.Sim.stats) = f () in
    s.makespan
  in
  let h = t (fun () -> Hyperquicksort.sort sim ~procs:16 a) in
  let p = t (fun () -> Sample_sort.sort sim ~procs:16 a) in
  let b = t (fun () -> Bitonic.sort sim ~procs:16 a) in
  Alcotest.(check bool) "hqs <= psrs" true (h <= p);
  Alcotest.(check bool) "hqs <= bitonic" true (h <= b)

(* --- histogram ------------------------------------------------------------------ *)

let random_floats ~seed n =
  let rng = Runtime.Xoshiro.of_seed seed in
  Array.init n (fun _ -> Runtime.Xoshiro.float rng 10.0 -. 5.0)

let prop_histogram_scl_matches_seq =
  qtest ~count:40 "host-SCL histogram = sequential"
    QCheck.(triple (int_range 0 200) (int_range 1 16) (int_range 0 100))
    (fun (n, buckets, seed) ->
      let xs = random_floats ~seed n in
      Histogram.histogram_scl ~buckets ~lo:(-5.0) ~hi:5.0 xs
      = Histogram.histogram_seq ~buckets ~lo:(-5.0) ~hi:5.0 xs)

let prop_histogram_sim_matches_seq =
  qtest ~count:20 "simulated histogram = sequential"
    QCheck.(triple (int_range 0 200) (int_range 1 12) (int_range 1 8))
    (fun (n, buckets, procs) ->
      let xs = random_floats ~seed:(n + buckets) n in
      let got, _ = Histogram.histogram sim ~procs ~buckets ~lo:(-5.0) ~hi:5.0 xs in
      got = Histogram.histogram_seq ~buckets ~lo:(-5.0) ~hi:5.0 xs)

let test_histogram_counts_everything () =
  let xs = random_floats ~seed:3 1000 in
  let h = Histogram.histogram_scl ~buckets:7 ~lo:(-5.0) ~hi:5.0 xs in
  Alcotest.(check int) "total count preserved" 1000 (Array.fold_left ( + ) 0 h)

let test_histogram_clamps_outliers () =
  let h = Histogram.histogram_seq ~buckets:4 ~lo:0.0 ~hi:1.0 [| -3.0; 0.5; 99.0 |] in
  Alcotest.(check (array int)) "ends absorb outliers" [| 1; 0; 1; 1 |] h

let test_histogram_invalid () =
  Alcotest.(check bool) "0 buckets" true
    (try
       ignore (Histogram.histogram_seq ~buckets:0 ~lo:0.0 ~hi:1.0 [||]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "empty range" true
    (try
       ignore (Histogram.histogram_seq ~buckets:3 ~lo:1.0 ~hi:1.0 [||]);
       false
     with Invalid_argument _ -> true)

(* --- nbody ---------------------------------------------------------------------- *)

let test_nbody_scl_matches_seq () =
  let bodies = Nbody.random_bodies ~seed:4 60 in
  Alcotest.(check bool) "farm = sequential" true
    (Nbody.accel_close (Nbody.accelerations_scl bodies) (Nbody.accelerations_seq bodies)
       ~eps:1e-12)

let prop_nbody_sim_matches_seq =
  qtest ~count:10 "simulated n-body = sequential"
    QCheck.(pair (int_range 1 40) (int_range 1 8))
    (fun (n, procs) ->
      let bodies = Nbody.random_bodies ~seed:n n in
      let got, _ = Nbody.accelerations sim ~procs bodies in
      Nbody.accel_close got (Nbody.accelerations_seq bodies) ~eps:1e-9)

let test_nbody_pool_matches_seq () =
  let pool = Runtime.Pool.create ~num_domains:2 () in
  Fun.protect
    ~finally:(fun () -> Runtime.Pool.teardown pool)
    (fun () ->
      let bodies = Nbody.random_bodies ~seed:9 80 in
      Alcotest.(check bool) "dynamic farm = sequential" true
        (Nbody.accel_close (Nbody.accelerations_pool pool bodies) (Nbody.accelerations_seq bodies)
           ~eps:1e-12))

let test_nbody_sim_scaling () =
  let bodies = Nbody.random_bodies ~seed:5 256 in
  let time p =
    let _, s = Nbody.accelerations sim ~procs:p bodies in
    s.Machine.Sim.makespan
  in
  Alcotest.(check bool) "compute-bound scaling" true (time 8 < time 2 && time 2 < time 1)

(* --- heat2d -------------------------------------------------------------------- *)

let test_heat2d_scl_matches_seq () =
  let f = Heat2d.manufactured_f 12 in
  let r0 = Heat2d.solve_seq ~tol:1e-8 f in
  let r1 = Heat2d.solve_scl ~grid:3 ~tol:1e-8 f in
  Alcotest.(check bool) "solutions agree" true (mat_close r0.solution r1.solution);
  Alcotest.(check int) "iteration counts agree" r0.iterations r1.iterations

let prop_heat2d_sim_matches_seq =
  qtest ~count:6 "simulated 2-D heat = sequential"
    QCheck.(pair (int_range 1 3) (int_range 1 3))
    (fun (q, scale) ->
      let n = q * scale * 2 in
      let f = Heat2d.manufactured_f n in
      let r0 = Heat2d.solve_seq ~tol:1e-6 ~max_iter:5_000 f in
      let r1, _ = Heat2d.solve sim ~procs:(q * q) ~tol:1e-6 ~max_iter:5_000 f in
      mat_close r0.solution r1.solution && r0.iterations = r1.iterations)

let test_heat2d_analytic () =
  let n = 20 in
  let r = Heat2d.solve_scl ~grid:2 ~tol:1e-9 ~max_iter:100_000 (Heat2d.manufactured_f n) in
  let err = ref 0.0 in
  Array.iteri
    (fun i row ->
      Array.iteri (fun j v -> err := Float.max !err (Float.abs (v -. Heat2d.manufactured_u n i j))) row)
    r.solution;
  (* second-order discretisation error at h = 1/21 *)
  Alcotest.(check bool) "close to sin*sin" true (!err < 5e-3)

let test_heat2d_bad_grid () =
  Alcotest.(check bool) "grid must divide n" true
    (try
       ignore (Heat2d.solve_scl ~grid:5 (Heat2d.manufactured_f 12));
       false
     with Invalid_argument _ -> true)

(* --- farm_sim ------------------------------------------------------------------- *)

let test_farm_static_dynamic_agree () =
  let spec = Farm_sim.skewed_spec ~njobs:64 ~skew:10 in
  let r1, _ = Farm_sim.static sim ~procs:8 spec in
  let r2, _ = Farm_sim.dynamic sim ~procs:8 spec in
  Alcotest.(check (array int)) "same results" r1 r2;
  Alcotest.(check (array int)) "correct results" (Array.init 64 (fun i -> i * i)) r1

let test_farm_dynamic_balances_skew () =
  let spec = Farm_sim.skewed_spec ~njobs:64 ~skew:20 in
  let _, s_static = Farm_sim.static sim ~procs:8 spec in
  let _, s_dynamic = Farm_sim.dynamic sim ~procs:8 spec in
  Alcotest.(check bool) "dynamic wins under skew" true
    (s_dynamic.Machine.Sim.makespan < s_static.Machine.Sim.makespan)

let test_farm_static_wins_uniform () =
  (* With uniform tiny jobs the demand-driven round trips dominate. *)
  let spec = { Farm_sim.njobs = 64; run = (fun i -> i); flops = (fun _ -> 500) } in
  let _, s_static = Farm_sim.static sim ~procs:8 spec in
  let _, s_dynamic = Farm_sim.dynamic sim ~procs:8 spec in
  Alcotest.(check bool) "static wins when uniform" true
    (s_static.Machine.Sim.makespan < s_dynamic.Machine.Sim.makespan)

let test_farm_dynamic_needs_two_procs () =
  Alcotest.(check bool) "procs=1 rejected" true
    (try
       ignore (Farm_sim.dynamic sim ~procs:1 (Farm_sim.skewed_spec ~njobs:4 ~skew:2));
       false
     with Invalid_argument _ -> true)

let test_farm_zero_jobs () =
  let spec = { Farm_sim.njobs = 0; run = (fun i -> i); flops = (fun _ -> 1) } in
  let r1, _ = Farm_sim.static sim ~procs:4 spec in
  let r2, _ = Farm_sim.dynamic sim ~procs:4 spec in
  Alcotest.(check (array int)) "static empty" [||] r1;
  Alcotest.(check (array int)) "dynamic empty" [||] r2

let test_farm_grace_is_free_when_fault_free () =
  (* arming the failure detector must not change a healthy run's results *)
  let spec = Farm_sim.skewed_spec ~njobs:48 ~skew:10 in
  let r0, _ = Farm_sim.dynamic sim ~procs:6 spec in
  let r1, _ = Farm_sim.dynamic sim ~procs:6 ~grace:0.5 spec in
  Alcotest.(check bool) "same results" true (r0 = r1)

let test_farm_survives_worker_crash_sim () =
  (* rank 2 fail-stops mid-job: the master re-deals the stranded job and the
     result set is still complete, with at least one reassignment counted *)
  let njobs = 30 in
  let spec = Farm_sim.skewed_spec ~njobs ~skew:6 in
  let expected = Array.init njobs (fun i -> i * i) in
  let reassign = Obs.Counter.make "farm.reassignments" in
  Obs.enable ();
  let before = Obs.Counter.value reassign in
  let chaos = { Machine.Chaos.none with Machine.Chaos.crashes = [ (2, 5) ] } in
  let got, _ = Farm_sim.dynamic sim ~procs:4 ~grace:0.5 ~chaos spec in
  let after = Obs.Counter.value reassign in
  Obs.disable ();
  Alcotest.(check bool) "all jobs done exactly once" true (got = expected);
  Alcotest.(check bool) "stranded job re-dealt" true (after > before);
  (* and the catalogue's seeded crash *)
  Engine_contract.oracle ~only:[ "farm crash" ] Prop.Engine_oracle.faults sim

let test_farm_straggler_redispatch_sim () =
  (* a stalling (not crashed) worker: results are identical; any duplicate
     results from re-dealt jobs are deduplicated, not double-counted *)
  let njobs = 24 in
  let spec = Farm_sim.skewed_spec ~njobs ~skew:4 in
  let expected = Array.init njobs (fun i -> i * i) in
  let chaos = { Machine.Chaos.none with Machine.Chaos.stalls = [ (3, 0.002) ] } in
  let got, _ = Farm_sim.dynamic sim ~procs:4 ~grace:0.5 ~chaos spec in
  Alcotest.(check bool) "straggler does not corrupt results" true (got = expected)

let test_farm_all_workers_lost_fails_loudly () =
  (* every worker crashes before finishing: the master must abort with a
     clear error instead of hanging or reporting partial results *)
  let spec = Farm_sim.skewed_spec ~njobs:16 ~skew:2 in
  let chaos = { Machine.Chaos.none with Machine.Chaos.crashes = [ (1, 3); (2, 3) ] } in
  Alcotest.(check bool) "loud failure" true
    (try
       ignore (Farm_sim.dynamic sim ~procs:3 ~grace:0.05 ~chaos spec);
       false
     with Failure msg ->
       let n = String.length "Farm_sim.dynamic" in
       String.length msg >= n && String.sub msg 0 n = "Farm_sim.dynamic")

(* --- fft ------------------------------------------------------------------------- *)

let prop_fft_matches_dft =
  qtest ~count:30 "skeleton FFT = naive DFT"
    QCheck.(pair (int_range 0 7) (int_range 0 100))
    (fun (bits, seed) ->
      let a = Fft.random_signal ~seed (1 lsl bits) in
      Fft.complex_close (Fft.fft_scl a) (Fft.dft_naive a) ~eps:1e-7)

let prop_fft_roundtrip =
  qtest ~count:30 "ifft (fft x) = x"
    QCheck.(pair (int_range 0 8) (int_range 0 100))
    (fun (bits, seed) ->
      let a = Fft.random_signal ~seed (1 lsl bits) in
      Fft.complex_close (Fft.ifft_scl (Fft.fft_scl a)) a ~eps:1e-9)

let prop_fft_sim_matches_host =
  qtest ~count:12 "simulated FFT = host FFT"
    QCheck.(pair (int_range 0 6) (int_range 1 8))
    (fun (bits, procs) ->
      let a = Fft.random_signal ~seed:(bits + procs) (1 lsl bits) in
      let got, _ = Fft.fft sim ~procs a in
      Fft.complex_close got (Fft.fft_scl a) ~eps:1e-9)

let test_fft_impulse () =
  (* FFT of a unit impulse is the all-ones vector. *)
  let n = 16 in
  let a = Array.init n (fun i -> if i = 0 then Complex.one else Complex.zero) in
  let f = Fft.fft_scl a in
  Alcotest.(check bool) "flat spectrum" true
    (Array.for_all (fun c -> Float.abs (c.Complex.re -. 1.0) < 1e-12 && Float.abs c.im < 1e-12) f)

let test_fft_linearity () =
  let a = Fft.random_signal ~seed:1 32 and b = Fft.random_signal ~seed:2 32 in
  let sum = Array.map2 Complex.add a b in
  let lhs = Fft.fft_scl sum in
  let rhs = Array.map2 Complex.add (Fft.fft_scl a) (Fft.fft_scl b) in
  Alcotest.(check bool) "linear" true (Fft.complex_close lhs rhs ~eps:1e-9)

let test_fft_rejects_non_power_of_two () =
  Alcotest.(check bool) "length 12 rejected" true
    (try
       ignore (Fft.fft_scl (Fft.random_signal ~seed:0 12));
       false
     with Invalid_argument _ -> true)

let test_bit_reverse () =
  Alcotest.(check int) "0b001 -> 0b100" 4 (Fft.bit_reverse ~bits:3 1);
  Alcotest.(check int) "0b110 -> 0b011" 3 (Fft.bit_reverse ~bits:3 6);
  Alcotest.(check bool) "involution" true
    (List.for_all (fun i -> Fft.bit_reverse ~bits:5 (Fft.bit_reverse ~bits:5 i) = i)
       (List.init 32 Fun.id))

(* --- conjugate gradients ---------------------------------------------------------- *)

let prop_cg_solves =
  qtest ~count:20 "CG solves the Laplacian system"
    QCheck.(pair (int_range 1 60) (int_range 0 50))
    (fun (n, seed) ->
      let rng = Runtime.Xoshiro.of_seed seed in
      let b = Array.init n (fun _ -> Runtime.Xoshiro.float rng 2.0 -. 1.0) in
      let r = Cg.solve_seq ~tol:1e-11 b in
      Cg.residual_inf r.solution b < 1e-7)

let test_cg_scl_matches_seq () =
  let rng = Runtime.Xoshiro.of_seed 17 in
  let b = Array.init 80 (fun _ -> Runtime.Xoshiro.float rng 2.0 -. 1.0) in
  let r0 = Cg.solve_seq ~tol:1e-10 b in
  let r1 = Cg.solve_scl ~tol:1e-10 b in
  Alcotest.(check int) "same iterations" r0.iterations r1.iterations;
  Alcotest.(check bool) "same solution" true
    (Array.for_all2 (fun x y -> Float.abs (x -. y) < 1e-9) r0.solution r1.solution)

let prop_cg_sim_matches_seq =
  qtest ~count:8 "simulated CG = sequential"
    QCheck.(pair (int_range 1 40) (int_range 1 6))
    (fun (n, procs) ->
      let rng = Runtime.Xoshiro.of_seed (n + procs) in
      let b = Array.init n (fun _ -> Runtime.Xoshiro.float rng 2.0 -. 1.0) in
      let r0 = Cg.solve_seq ~tol:1e-10 b in
      let r1, _ = Cg.solve sim ~procs ~tol:1e-10 b in
      Cg.residual_inf r1.solution b < 1e-7 && abs (r0.iterations - r1.iterations) <= 2)

let test_cg_matches_gauss () =
  (* Cross-check against the dense Gauss–Jordan solver on the same system. *)
  let n = 24 in
  let rng = Runtime.Xoshiro.of_seed 9 in
  let b = Array.init n (fun _ -> Runtime.Xoshiro.float rng 2.0 -. 1.0) in
  let a =
    Array.init n (fun i ->
        Array.init n (fun j ->
            if i = j then 2.0 else if abs (i - j) = 1 then -1.0 else 0.0))
  in
  let x_dense = Seq_kernels.gauss_seq a b in
  let x_cg = (Cg.solve_seq ~tol:1e-12 b).solution in
  Alcotest.(check bool) "CG = Gauss on tridiagonal" true
    (Array.for_all2 (fun u v -> Float.abs (u -. v) < 1e-7) x_dense x_cg)

let test_cg_empty () =
  let r = Cg.solve_scl [||] in
  Alcotest.(check int) "no iterations" 0 r.iterations

(* --- k-means ------------------------------------------------------------------------ *)

let kmeans_setup seed =
  let points, centres = Kmeans.blobs ~seed ~k:4 ~per_cluster:50 in
  let init = Array.init 4 (fun i -> points.(i * 50)) in
  (points, centres, init)

let test_kmeans_seq_converges () =
  let points, centres, init = kmeans_setup 5 in
  let r = Kmeans.run_seq ~k:4 points ~init in
  Alcotest.(check bool) "converged" true r.converged;
  Alcotest.(check bool) "centroids near the true centres" true
    (Array.for_all
       (fun c -> Array.exists (fun t -> Kmeans.dist2 c t < 1.0) centres)
       r.centroids)

let test_kmeans_scl_matches_seq () =
  let points, _, init = kmeans_setup 6 in
  let r0 = Kmeans.run_seq ~k:4 points ~init in
  let r1 = Kmeans.run_scl ~parts:4 ~k:4 points ~init in
  Alcotest.(check (array int)) "assignments agree" r0.assignment r1.assignment

let prop_kmeans_sim_matches_seq =
  qtest ~count:8 "simulated k-means = sequential assignment"
    QCheck.(pair (int_range 1 6) (int_range 0 30))
    (fun (procs, seed) ->
      let points, _, init = kmeans_setup seed in
      let r0 = Kmeans.run_seq ~k:4 points ~init in
      let r1, _ = Kmeans.run sim ~procs ~k:4 points ~init in
      r1.assignment = r0.assignment)

let test_kmeans_partitions_points () =
  let points, _, init = kmeans_setup 7 in
  let r = Kmeans.run_seq ~k:4 points ~init in
  Alcotest.(check int) "every point labelled" (Array.length points) (Array.length r.assignment);
  Alcotest.(check bool) "labels in range" true
    (Array.for_all (fun l -> l >= 0 && l < 4) r.assignment)

let test_kmeans_invalid () =
  Alcotest.(check bool) "k=0" true
    (try
       ignore (Kmeans.run_seq ~k:0 [||] ~init:[||]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "wrong init size" true
    (try
       ignore (Kmeans.run_seq ~k:2 [||] ~init:[| { Kmeans.x = 0.0; y = 0.0 } |]);
       false
     with Invalid_argument _ -> true)

(* --- odd-even transposition ------------------------------------------------------- *)

let prop_odd_even_sorts =
  qtest ~count:30 "odd-even transposition sorts on a ring"
    QCheck.(pair (list int) (int_range 1 9))
    (fun (xs, procs) ->
      let a = Array.of_list xs in
      let sorted, _ = Odd_even.sort sim ~procs a in
      sorted = sorted_copy a)

let test_odd_even_is_all_nearest_neighbour () =
  (* On a ring, every exchange must be a single hop: compare against a star
     topology where leaf-to-leaf traffic costs 2 hops. *)
  let rng = Runtime.Xoshiro.of_seed 31 in
  let a = Runtime.Xoshiro.int_array rng ~len:4_000 ~bound:100_000 in
  let _, ring = Odd_even.sort sim ~topology:Machine.Topology.Ring ~procs:8 a in
  let _, star = Odd_even.sort sim ~topology:Machine.Topology.Star ~procs:8 a in
  Alcotest.(check bool) "ring at least as fast" true
    (ring.Machine.Sim.makespan <= star.Machine.Sim.makespan)

let test_odd_even_vs_hqs_on_ring () =
  (* Hyperquicksort's cube exchanges pay long hops on a ring; odd-even's
     neighbour traffic does not. At high latency-per-hop the ring-native
     sort must win. *)
  let rng = Runtime.Xoshiro.of_seed 32 in
  let a = Runtime.Xoshiro.int_array rng ~len:8_000 ~bound:1_000_000 in
  let hoppy = { Machine.Cost_model.ap1000 with per_hop = 1000e-6 } in
  let _, oe =
    Odd_even.sort (Machine.Backend.sim ~cost:hoppy ()) ~topology:Machine.Topology.Ring ~procs:16 a
  in
  let _, hq =
    Hyperquicksort.sort (Machine.Backend.sim ~cost:hoppy ()) ~topology:Machine.Topology.Ring
      ~procs:16 a
  in
  Alcotest.(check bool) "odd-even wins on a high-latency ring" true
    (oe.Machine.Sim.makespan < hq.Machine.Sim.makespan)

(* --- line of sight ----------------------------------------------------------------- *)

let random_terrain ~seed n =
  let rng = Runtime.Xoshiro.of_seed seed in
  Array.init n (fun _ -> Runtime.Xoshiro.float rng 100.0)

let prop_los_scl_matches_seq =
  qtest ~count:50 "scan-based line of sight = sequential"
    QCheck.(pair (int_range 0 200) (int_range 0 50))
    (fun (n, seed) ->
      let t = random_terrain ~seed n in
      Line_of_sight.visible_scl t = Line_of_sight.visible_seq t)

let prop_los_sim_matches_seq =
  qtest ~count:20 "simulated line of sight = sequential"
    QCheck.(triple (int_range 0 120) (int_range 1 8) (int_range 0 20))
    (fun (n, procs, seed) ->
      let t = random_terrain ~seed n in
      let got, _ = Line_of_sight.visible sim ~procs t in
      got = Line_of_sight.visible_seq t)

let test_los_monotone_ridge () =
  (* convex terrain (heights i^2): viewing angles strictly increase, so
     everything is visible *)
  let t = Array.init 50 (fun i -> float_of_int (i * i)) in
  Alcotest.(check bool) "all visible" true (Array.for_all Fun.id (Line_of_sight.visible_seq t));
  (* a wall at index 1 hides all lower flat ground behind it *)
  let wall = Array.append [| 0.0; 100.0 |] (Array.make 40 0.0) in
  let v = Line_of_sight.visible_scl wall in
  Alcotest.(check bool) "observer and wall visible" true (v.(0) && v.(1));
  Alcotest.(check bool) "plain behind the wall hidden" true
    (not (Array.exists Fun.id (Array.sub v 2 40)))

(* --- flat tier ------------------------------------------------------------------
   The unboxed Bigarray ports of jacobi/heat2d/cg must be bitwise-identical
   to their boxed oracles at the same process count: same block geometry,
   same local summation order, same stencil expression shape, so every
   intermediate float — and hence the iteration count and each solution
   component — is exactly equal, not merely close. *)

let vec_bitwise a b =
  Array.length a = Array.length b && Array.for_all2 (fun x y -> Float.equal x y) a b

(* The catalogue's tiers family at seed 42: each solver's flat tier, on
   the simulator or the multicore engine, against its boxed tier on the
   simulator. *)
let tier backend program () =
  Engine_contract.oracle ~only:[ program ] Prop.Engine_oracle.tiers backend

let test_jacobi_flat_degenerate_blocks () =
  (* fewer elements than ranks: ranks that own none send no halos and
     are skipped as neighbours, on both tiers alike *)
  List.iter
    (fun (n, procs) ->
      let f = Array.init n (fun j -> float_of_int (j + 1)) in
      let r0, s0 = Jacobi.solve sim ~procs ~tol:1e-10 f ~left:1.0 ~right:(-2.0) in
      let r1, s1 = Jacobi.solve_flat sim ~procs ~tol:1e-10 f ~left:1.0 ~right:(-2.0) in
      let what = Printf.sprintf " n=%d p=%d" n procs in
      Alcotest.(check int) ("iterations" ^ what) r0.Jacobi.iterations r1.Jacobi.iterations;
      Alcotest.(check int) ("messages" ^ what) s0.Machine.Sim.total_msgs s1.Machine.Sim.total_msgs;
      Alcotest.(check bool) ("bitwise solution" ^ what) true
        (vec_bitwise r0.Jacobi.solution r1.Jacobi.solution);
      Alcotest.(check bool) ("matches sequential" ^ what) true
        (vec_bitwise (Jacobi.solve_seq ~tol:1e-10 f ~left:1.0 ~right:(-2.0)).Jacobi.solution
           r1.Jacobi.solution))
    [ (0, 4); (1, 4); (2, 4); (3, 4); (5, 8) ]

let test_jacobi_flat_max_iter () =
  let f = Array.make 50 1.0 in
  List.iter
    (fun procs ->
      let r0, _ = Jacobi.solve sim ~procs ~tol:0.0 ~max_iter:17 f ~left:0.0 ~right:0.0 in
      let r1, _ = Jacobi.solve_flat sim ~procs ~tol:0.0 ~max_iter:17 f ~left:0.0 ~right:0.0 in
      Alcotest.(check int) (Printf.sprintf "boxed stops at cap p=%d" procs) 17 r0.Jacobi.iterations;
      Alcotest.(check int) (Printf.sprintf "flat stops at cap p=%d" procs) 17 r1.Jacobi.iterations;
      Alcotest.(check bool)
        (Printf.sprintf "final diff p=%d" procs)
        true
        (Float.equal r0.Jacobi.final_diff r1.Jacobi.final_diff))
    [ 1; 3 ]

let test_jacobi_flat_work_times () =
  (* one body, one set of flops charges: each rank's simulated compute
     time is the boxed tier's to the bit *)
  let f = Array.init 41 (fun j -> float_of_int ((j * 7 mod 13) - 6)) in
  List.iter
    (fun procs ->
      let _, s0 = Jacobi.solve sim ~procs ~tol:1e-8 f ~left:0.5 ~right:0.0 in
      let _, s1 = Jacobi.solve_flat sim ~procs ~tol:1e-8 f ~left:0.5 ~right:0.0 in
      Alcotest.(check (array (float 0.0)))
        (Printf.sprintf "work times p=%d" procs)
        s0.Machine.Sim.work_times s1.Machine.Sim.work_times)
    [ 1; 2; 5 ]

(* The flat CG on each engine; on 2 domains a neighbour reads the reused
   halo buffer from another domain while its owner runs on, which checks
   the zero-copy argument under real parallelism. *)
let cg_flat_engines =
  let on backend ~procs ~tol b : Cg.result = fst (Cg.solve_flat backend ~procs ~tol b) in
  [
    ("sim", on sim);
    ("multicore", on (Machine.Backend.multicore ~domains:1 ()));
    ("2-domain", on (Machine.Backend.multicore ~domains:2 ()));
  ]

let check_cg_bitwise what (r0 : Cg.result) (r1 : Cg.result) =
  Alcotest.(check int) ("iterations " ^ what) r0.Cg.iterations r1.Cg.iterations;
  Alcotest.(check int64)
    ("residual norm bits " ^ what)
    (Int64.bits_of_float r0.Cg.residual_norm)
    (Int64.bits_of_float r1.Cg.residual_norm);
  Alcotest.(check bool) ("bitwise solution " ^ what) true (vec_bitwise r0.Cg.solution r1.Cg.solution)

(* The flat CG peels the first and last element of its block out of the
   stencil loop; blocks of 0, 1 and 2 elements are where a peeled edge
   could read the wrong neighbour or accumulate twice. *)
let test_cg_flat_degenerate_blocks () =
  List.iter
    (fun n ->
      let rng = Runtime.Xoshiro.of_seed (97 + n) in
      let b = Array.init n (fun _ -> Runtime.Xoshiro.float rng 2.0 -. 1.0) in
      List.iter
        (fun procs ->
          let r0, _ = Cg.solve sim ~procs ~tol:1e-10 b in
          List.iter
            (fun (engine, solve_flat) ->
              check_cg_bitwise
                (Printf.sprintf "%s n=%d p=%d" engine n procs)
                r0
                (solve_flat ~procs ~tol:1e-10 b))
            cg_flat_engines)
        [ 1; 2; 3; 4; 8 ])
    [ 0; 1; 2; 3; 5; 9 ]

(* The steady benchmark's shape: n = 1000 on 2 ranks, tol 1e-8 (the
   benchmark runs them on one domain). Its check compares against
   [solve_sim_flat], which runs this same flat body, so the boxed oracle
   is what pins it. *)
let test_cg_flat_benchmark_shape () =
  let rng = Runtime.Xoshiro.of_seed 1000 in
  let b = Array.init 1000 (fun _ -> Runtime.Xoshiro.float rng 2.0 -. 1.0) in
  let r0, _ = Cg.solve sim ~procs:2 ~tol:1e-8 b in
  Alcotest.(check bool) "iterates" true (r0.Cg.iterations > 0);
  List.iter
    (fun (engine, solve_flat) -> check_cg_bitwise engine r0 (solve_flat ~procs:2 ~tol:1e-8 b))
    cg_flat_engines

(* CG's flat body applies each iteration's p update in the next
   iteration's stencil pass but charges it where the boxed body does, at
   the end of the iteration: each rank's simulated compute time is the
   boxed tier's to the bit. *)
let test_cg_flat_work_times () =
  let rng = Runtime.Xoshiro.of_seed 41 in
  let b = Array.init 41 (fun _ -> Runtime.Xoshiro.float rng 2.0 -. 1.0) in
  List.iter
    (fun procs ->
      let _, s0 = Cg.solve sim ~procs ~tol:1e-10 b in
      let _, s1 = Cg.solve_flat sim ~procs ~tol:1e-10 b in
      Alcotest.(check (array (float 0.0)))
        (Printf.sprintf "work times p=%d" procs)
        s0.Machine.Sim.work_times s1.Machine.Sim.work_times)
    [ 1; 2; 3; 5 ]

(* Runs cut at 0..3 iterations: the first iteration has no pending p
   update, and a run that stops right after computing a β never applies
   it. Blocks of 0 to 3 elements put the deferred update on the peeled
   edges alone, or on one interior element. *)
let test_cg_flat_iteration_cap () =
  let mc1 = Machine.Backend.multicore ~domains:1 () in
  List.iter
    (fun n ->
      let rng = Runtime.Xoshiro.of_seed (53 + n) in
      let b = Array.init n (fun _ -> Runtime.Xoshiro.float rng 2.0 -. 1.0) in
      List.iter
        (fun procs ->
          List.iter
            (fun max_iter ->
              let r0, _ = Cg.solve sim ~procs ~tol:0.0 ~max_iter b in
              let check engine r1 =
                check_cg_bitwise
                  (Printf.sprintf "%s n=%d p=%d max_iter=%d" engine n procs max_iter)
                  r0 r1
              in
              check "sim" (fst (Cg.solve_flat sim ~procs ~tol:0.0 ~max_iter b));
              check "multicore" (fst (Cg.solve_flat mc1 ~procs ~tol:0.0 ~max_iter b)))
            [ 0; 1; 2; 3 ])
        [ 1; 2; 3; 4; 8 ])
    [ 0; 1; 2; 3; 5; 9 ]

let () =
  Alcotest.run "algorithms"
    [
      ( "seq_kernels",
        [
          prop_quicksort_sorts;
          Alcotest.test_case "quicksort pure" `Quick test_quicksort_preserves_input;
          Alcotest.test_case "midvalue" `Quick test_midvalue;
          prop_split_at;
          prop_merge;
          Alcotest.test_case "is_sorted" `Quick test_is_sorted;
          Alcotest.test_case "partial pivot" `Quick test_partial_pivot;
          Alcotest.test_case "gauss_seq small" `Quick test_gauss_seq_small;
          Alcotest.test_case "gauss_seq singular" `Quick test_gauss_seq_singular;
          Alcotest.test_case "gauss_seq pivoting" `Quick test_gauss_seq_needs_pivoting;
          prop_matmul_identity;
        ] );
      ( "hyperquicksort",
        [
          prop_hqs_recursive_sorts;
          prop_hqs_flat_sorts;
          prop_hqs_flat_equals_recursive;
          prop_hqs_sim_sorts;
          Alcotest.test_case "adversarial inputs" `Quick test_hqs_adversarial_inputs;
          Alcotest.test_case "non-power-of-two rejected" `Quick test_hqs_sim_rejects_non_power_of_two;
          Alcotest.test_case "pool backend" `Slow test_hqs_pool_backend;
          Alcotest.test_case "speedup shape" `Slow test_hqs_sim_speedup_shape;
          Alcotest.test_case "simulator deterministic" `Quick test_hqs_sim_deterministic;
          Alcotest.test_case "figure-2 trace" `Quick test_hqs_traced_figure2;
          prop_hqs_flatint_equals_boxed_sim;
          Alcotest.test_case "flat-int adversarial inputs" `Quick test_hqs_flatint_adversarial;
          Alcotest.test_case "flat-int multicore" `Slow test_hqs_flatint_multicore;
          Alcotest.test_case "flat-int merge reuse = sim on multicore" `Slow
            test_hqs_flatint_multicore_merge_reuse;
          Alcotest.test_case "flat-int figure-2 notes = boxed" `Quick test_hqs_flatint_figure2_notes;
          Alcotest.test_case "flat-int notes = boxed on skewed keys" `Quick
            test_hqs_flatint_notes_skewed;
          Alcotest.test_case "flat-int work times = boxed" `Quick test_hqs_flatint_work_times;
          Alcotest.test_case "flat-int leaves the input unchanged" `Quick
            test_hqs_flatint_input_untouched;
        ] );
      ( "workspace",
        [
          Alcotest.test_case "second identical run reuses every buffer" `Quick
            test_ws_second_run_reuses;
          Alcotest.test_case "raising run recycles nothing" `Quick
            test_ws_raising_run_recycles_nothing;
          Alcotest.test_case "run's workspace result survives run_flat" `Quick
            test_ws_run_result_survives;
          Alcotest.test_case "two domains sort at once under delays" `Quick test_ws_concurrent_sorts;
          Alcotest.test_case "free list bounded" `Quick test_ws_free_list_bounded;
          Alcotest.test_case "rejects bad kind and length" `Quick test_ws_rejects;
        ] );
      ( "gauss",
        [
          Alcotest.test_case "SCL matches sequential" `Quick test_gauss_scl_matches_seq;
          prop_gauss_scl_residual;
          prop_gauss_sim_residual;
          Alcotest.test_case "sim matches SCL" `Quick test_gauss_sim_matches_scl;
          Alcotest.test_case "pivoting required" `Quick test_gauss_needs_pivoting_parallel;
          Alcotest.test_case "singular detected" `Quick test_gauss_singular_parallel;
          Alcotest.test_case "sim scaling" `Slow test_gauss_sim_scaling;
        ] );
      ( "cannon",
        [
          prop_cannon_scl_matches_seq;
          prop_cannon_sim_matches_seq;
          Alcotest.test_case "bad grid rejected" `Quick test_cannon_rejects_bad_grid;
          Alcotest.test_case "sim scaling" `Slow test_cannon_sim_scaling;
          Alcotest.test_case "cannon = summa (sim, bitwise)" `Quick test_cannon_equals_summa;
        ] );
      ( "jacobi",
        [
          Alcotest.test_case "SCL matches sequential" `Quick test_jacobi_scl_matches_seq;
          prop_jacobi_sim_matches_seq;
          Alcotest.test_case "analytic solution" `Slow test_jacobi_converges_to_analytic;
          Alcotest.test_case "max_iter respected" `Quick test_jacobi_max_iter_respected;
          Alcotest.test_case "empty problem" `Quick test_jacobi_empty;
        ] );
      ( "baseline_sorts",
        [
          prop_psrs_scl_sorts;
          prop_psrs_sim_sorts;
          prop_bitonic_sim_sorts;
          Alcotest.test_case "bitonic sentinel guard" `Quick test_bitonic_rejects_sentinel;
          Alcotest.test_case "skewed load" `Quick test_bitonic_balanced_load;
          Alcotest.test_case "comparison shape" `Slow test_sort_comparison_shape;
        ] );
      ( "histogram",
        [
          prop_histogram_scl_matches_seq;
          prop_histogram_sim_matches_seq;
          Alcotest.test_case "counts preserved" `Quick test_histogram_counts_everything;
          Alcotest.test_case "outliers clamp" `Quick test_histogram_clamps_outliers;
          Alcotest.test_case "invalid args" `Quick test_histogram_invalid;
        ] );
      ( "nbody",
        [
          Alcotest.test_case "farm = sequential" `Quick test_nbody_scl_matches_seq;
          prop_nbody_sim_matches_seq;
          Alcotest.test_case "pool farm" `Slow test_nbody_pool_matches_seq;
          Alcotest.test_case "sim scaling" `Slow test_nbody_sim_scaling;
        ] );
      ( "heat2d",
        [
          Alcotest.test_case "SCL matches sequential" `Slow test_heat2d_scl_matches_seq;
          prop_heat2d_sim_matches_seq;
          Alcotest.test_case "analytic solution" `Slow test_heat2d_analytic;
          Alcotest.test_case "bad grid rejected" `Quick test_heat2d_bad_grid;
        ] );
      ( "farm_sim",
        [
          Alcotest.test_case "static = dynamic results" `Quick test_farm_static_dynamic_agree;
          Alcotest.test_case "dynamic wins under skew" `Quick test_farm_dynamic_balances_skew;
          Alcotest.test_case "static wins when uniform" `Quick test_farm_static_wins_uniform;
          Alcotest.test_case "dynamic needs 2 procs" `Quick test_farm_dynamic_needs_two_procs;
          Alcotest.test_case "zero jobs" `Quick test_farm_zero_jobs;
          Alcotest.test_case "grace free when fault-free" `Quick test_farm_grace_is_free_when_fault_free;
          Alcotest.test_case "survives worker crash" `Quick test_farm_survives_worker_crash_sim;
          Alcotest.test_case "straggler redispatch" `Quick test_farm_straggler_redispatch_sim;
          Alcotest.test_case "all workers lost fails loudly" `Quick
            test_farm_all_workers_lost_fails_loudly;
        ] );
      ( "fft",
        [
          prop_fft_matches_dft;
          prop_fft_roundtrip;
          prop_fft_sim_matches_host;
          Alcotest.test_case "impulse" `Quick test_fft_impulse;
          Alcotest.test_case "linearity" `Quick test_fft_linearity;
          Alcotest.test_case "non-power-of-two rejected" `Quick test_fft_rejects_non_power_of_two;
          Alcotest.test_case "bit reversal" `Quick test_bit_reverse;
        ] );
      ( "cg",
        [
          prop_cg_solves;
          Alcotest.test_case "SCL matches sequential" `Quick test_cg_scl_matches_seq;
          prop_cg_sim_matches_seq;
          Alcotest.test_case "CG = Gauss cross-check" `Quick test_cg_matches_gauss;
          Alcotest.test_case "empty system" `Quick test_cg_empty;
        ] );
      ( "kmeans",
        [
          Alcotest.test_case "converges to blobs" `Quick test_kmeans_seq_converges;
          Alcotest.test_case "SCL matches sequential" `Quick test_kmeans_scl_matches_seq;
          prop_kmeans_sim_matches_seq;
          Alcotest.test_case "labels well-formed" `Quick test_kmeans_partitions_points;
          Alcotest.test_case "invalid args" `Quick test_kmeans_invalid;
        ] );
      ( "line_of_sight",
        [
          prop_los_scl_matches_seq;
          prop_los_sim_matches_seq;
          Alcotest.test_case "ridge and wall" `Quick test_los_monotone_ridge;
        ] );
      ( "odd_even",
        [
          prop_odd_even_sorts;
          Alcotest.test_case "nearest-neighbour traffic" `Quick test_odd_even_is_all_nearest_neighbour;
          Alcotest.test_case "wins on high-latency ring" `Slow test_odd_even_vs_hqs_on_ring;
        ] );
      ( "flat-tier",
        [
          Alcotest.test_case "jacobi flat = boxed (sim, bitwise)" `Quick
            (tier sim "jacobi");
          Alcotest.test_case "heat2d flat = boxed (sim, bitwise)" `Quick
            (tier sim "heat2d");
          Alcotest.test_case "cg flat = boxed (sim, bitwise)" `Quick (tier sim "cg");
          Alcotest.test_case "jacobi flat multicore = sim" `Quick (tier mc "jacobi");
          Alcotest.test_case "cg flat multicore = sim" `Quick (tier mc "cg");
          Alcotest.test_case "heat2d flat multicore = sim" `Quick (tier mc "heat2d");
          Alcotest.test_case "cg flat = boxed on degenerate blocks" `Quick
            test_cg_flat_degenerate_blocks;
          Alcotest.test_case "cg flat at the benchmark's shape" `Quick
            test_cg_flat_benchmark_shape;
          Alcotest.test_case "jacobi flat = boxed on degenerate blocks" `Quick
            test_jacobi_flat_degenerate_blocks;
          Alcotest.test_case "jacobi flat max_iter respected" `Quick test_jacobi_flat_max_iter;
          Alcotest.test_case "jacobi flat work times = boxed" `Quick test_jacobi_flat_work_times;
          Alcotest.test_case "cg flat work times = boxed" `Quick test_cg_flat_work_times;
          Alcotest.test_case "cg flat = boxed at the iteration cap" `Quick
            test_cg_flat_iteration_cap;
        ] );
    ]
