(* Tests for the skeleton implementation templates on the simulated
   machine: Dvec semantics must agree with the host SCL (sequential
   reference) semantics, and costs must behave sensibly. *)

open Machine

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let run_collect ?(procs = 4) ?cost f = Scl_sim.Spmd.run (Backend.sim ?cost ()) ~procs f

let run ?procs ?cost f =
  snd (run_collect ?procs ?cost (fun comm -> f comm; Some ()))

(* Round-trip a root array through a Dvec operation and collect at root. *)
let via_dvec ~procs op (a : int array) : int array =
  let result, _ =
    run_collect ~procs (fun comm ->
        let dv =
          Scl_sim.Dvec.scatter comm ~root:0 (if Comm.rank comm = 0 then Some a else None)
        in
        Scl_sim.Dvec.gather ~root:0 (op dv))
  in
  result

let test_scatter_gather () =
  let a = Array.init 23 Fun.id in
  List.iter
    (fun procs ->
      Alcotest.(check (array int))
        (Printf.sprintf "identity via %d procs" procs)
        a (via_dvec ~procs Fun.id a))
    [ 1; 2; 3; 4; 7; 8 ]

let test_scatter_empty () =
  Alcotest.(check (array int)) "empty vector" [||] (via_dvec ~procs:4 Fun.id [||])

let test_offsets () =
  let offsets = Array.make 4 (-1) and lens = Array.make 4 (-1) in
  let _ =
    run ~procs:4 (fun comm ->
        let dv =
          Scl_sim.Dvec.scatter comm ~root:0
            (if Comm.rank comm = 0 then Some (Array.init 10 Fun.id) else None)
        in
        offsets.(Comm.rank comm) <- Scl_sim.Dvec.offset dv;
        lens.(Comm.rank comm) <- Scl_sim.Dvec.local_length dv)
  in
  Alcotest.(check (array int)) "offsets" [| 0; 3; 6; 8 |] offsets;
  Alcotest.(check (array int)) "lengths" [| 3; 3; 2; 2 |] lens

let test_map_imap () =
  let a = Array.init 17 Fun.id in
  Alcotest.(check (array int)) "map" (Array.map (fun x -> x * 2) a)
    (via_dvec ~procs:4 (Scl_sim.Dvec.map (fun x -> x * 2)) a);
  Alcotest.(check (array int)) "imap uses global index" (Array.mapi (fun i x -> (i * 100) + x) a)
    (via_dvec ~procs:4 (Scl_sim.Dvec.imap (fun i x -> (i * 100) + x)) a)

let test_fold () =
  let results = Array.make 5 0 in
  let _ =
    run ~procs:5 (fun comm ->
        let dv =
          Scl_sim.Dvec.scatter comm ~root:0
            (if Comm.rank comm = 0 then Some (Array.init 100 (fun i -> i + 1)) else None)
        in
        results.(Comm.rank comm) <- Scl_sim.Dvec.fold ( + ) dv)
  in
  Array.iter (fun v -> Alcotest.(check int) "fold everywhere" 5050 v) results

let test_fold_order () =
  let result = ref "" in
  let _ =
    run ~procs:3 (fun comm ->
        let dv =
          Scl_sim.Dvec.scatter comm ~root:0
            (if Comm.rank comm = 0 then Some (Array.init 10 string_of_int) else None)
        in
        let v = Scl_sim.Dvec.fold ( ^ ) dv in
        if Comm.rank comm = 0 then result := v)
  in
  Alcotest.(check string) "index order despite distribution" "0123456789" !result

let test_fold_more_procs_than_elements () =
  let result = ref 0 in
  let _ =
    run ~procs:8 (fun comm ->
        let dv =
          Scl_sim.Dvec.scatter comm ~root:0 (if Comm.rank comm = 0 then Some [| 3; 4 |] else None)
        in
        let v = Scl_sim.Dvec.fold ( + ) dv in
        if Comm.rank comm = 0 then result := v)
  in
  Alcotest.(check int) "empty chunks skipped" 7 !result

let prop_scan_matches_reference =
  qtest ~count:40 "Dvec.scan = host scan"
    QCheck.(pair (list small_int) (int_range 1 8))
    (fun (xs, procs) ->
      let procs = max 1 procs in
      let a = Array.of_list xs in
      let host =
        Scl.Par_array.to_array (Scl.Elementary.scan ( + ) (Scl.Par_array.of_array a))
      in
      via_dvec ~procs (Scl_sim.Dvec.scan ( + )) a = host)

let prop_rotate_matches_reference =
  qtest ~count:60 "Dvec.rotate = host rotate"
    QCheck.(triple (list small_int) (int_range (-15) 15) (int_range 1 8))
    (fun (xs, k, procs) ->
      let procs = max 1 procs in
      let a = Array.of_list xs in
      let host =
        Scl.Par_array.to_array (Scl.Communication.rotate k (Scl.Par_array.of_array a))
      in
      via_dvec ~procs (Scl_sim.Dvec.rotate k) a = host)

let prop_fetch_matches_reference =
  qtest ~count:40 "Dvec.fetch = host fetch"
    QCheck.(triple (int_range 1 30) (int_range 0 50) (int_range 1 6))
    (fun (n, k, procs) ->
      let procs = max 1 procs in
      let n = max 1 n in
      let a = Array.init n (fun i -> i * 7) in
      let f i = (i + k) mod n in
      let host = Scl.Par_array.to_array (Scl.Communication.fetch f (Scl.Par_array.of_array a)) in
      via_dvec ~procs (Scl_sim.Dvec.fetch f) a = host)

let test_send_matches_reference () =
  let a = Array.init 12 Fun.id in
  let f k = [ k / 2 ] in
  let host =
    Scl.Par_array.to_array (Scl.Communication.send f (Scl.Par_array.of_array a))
  in
  let got, _ =
    run_collect ~procs:4 (fun comm ->
        let dv =
          Scl_sim.Dvec.scatter comm ~root:0 (if Comm.rank comm = 0 then Some a else None)
        in
        Scl_sim.Dvec.gather ~root:0 (Scl_sim.Dvec.send f dv))
  in
  Alcotest.(check bool) "send buckets match" true (got = host)

let test_applybrdcast () =
  let results = Array.make 4 0 in
  let _ =
    run ~procs:4 (fun comm ->
        let dv =
          Scl_sim.Dvec.scatter comm ~root:0
            (if Comm.rank comm = 0 then Some (Array.init 10 (fun i -> i * 11)) else None)
        in
        results.(Comm.rank comm) <- Scl_sim.Dvec.applybrdcast ~flops:1 (fun x -> x + 1) 7 dv)
  in
  Array.iter (fun v -> Alcotest.(check int) "element 7 + 1 everywhere" 78 v) results

let test_allgather () =
  let ok = ref true in
  let a = Array.init 9 Fun.id in
  let _ =
    run ~procs:4 (fun comm ->
        let dv =
          Scl_sim.Dvec.scatter comm ~root:0 (if Comm.rank comm = 0 then Some a else None)
        in
        if Scl_sim.Dvec.allgather dv <> a then ok := false)
  in
  Alcotest.(check bool) "every processor has the full vector" true !ok

(* --- cost sanity ------------------------------------------------------------ *)

let test_map_charges_work () =
  let stats =
    run ~procs:2 ~cost:Cost_model.unit_costs (fun comm ->
        let dv =
          Scl_sim.Dvec.scatter comm ~root:0
            (if Comm.rank comm = 0 then Some (Array.make 10 1) else None)
        in
        ignore (Scl_sim.Dvec.map ~flops_per_elem:3 (fun x -> x) dv))
  in
  (* each of 2 procs: 5 elements * 3 flops * 1s *)
  Alcotest.(check bool) "work charged" true
    (Array.for_all (fun w -> w >= 15.0) stats.Sim.work_times)

let test_more_procs_is_faster () =
  (* A compute-heavy map should scale with processor count. *)
  let time procs =
    let stats =
      run ~procs (fun comm ->
          let dv =
            Scl_sim.Dvec.scatter comm ~root:0
              (if Comm.rank comm = 0 then Some (Array.make 4096 1) else None)
          in
          ignore (Scl_sim.Dvec.map ~flops_per_elem:1000 (fun x -> x + 1) dv))
    in
    stats.Sim.makespan
  in
  let t1 = time 1 and t4 = time 4 and t16 = time 16 in
  Alcotest.(check bool) "t(4) < t(1)" true (t4 < t1);
  Alcotest.(check bool) "t(16) < t(4)" true (t16 < t4)

let test_rotate_message_economy () =
  (* rotate sends only boundary segments: message count must be O(P), not
     O(P^2) like an all-to-all. *)
  let stats =
    run ~procs:8 (fun comm ->
        let dv =
          Scl_sim.Dvec.scatter comm ~root:0
            (if Comm.rank comm = 0 then Some (Array.init 64 Fun.id) else None)
        in
        ignore (Scl_sim.Dvec.rotate 3 dv))
  in
  (* scatter/gather-free: scatter itself costs messages; rotation adds at
     most 2 per proc. Just bound the total. *)
  Alcotest.(check bool) "message count bounded" true (stats.Sim.total_msgs < 80)

(* --- Dmat / SUMMA -------------------------------------------------------------- *)

let mat_close a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun r1 r2 -> Array.for_all2 (fun x y -> Float.abs (x -. y) < 1e-9) r1 r2) a b

let test_dmat_init_gather () =
  let n = 12 and procs = 9 in
  let f i j = float_of_int ((i * 100) + j) in
  let got = ref [||] in
  let _ =
    run ~procs (fun comm ->
        let m = Scl_sim.Dmat.init comm ~n f in
        match Scl_sim.Dmat.gather ~root:0 m with
        | Some full -> got := full
        | None -> ())
  in
  Alcotest.(check bool) "reassembled" true
    (mat_close !got (Array.init n (fun i -> Array.init n (f i))))

let test_dmat_scatter_gather () =
  let n = 8 and procs = 16 in
  let m0 = Array.init n (fun i -> Array.init n (fun j -> float_of_int (i - j))) in
  let got = ref [||] in
  let _ =
    run ~procs (fun comm ->
        let m =
          Scl_sim.Dmat.scatter comm ~root:0 (if Comm.rank comm = 0 then Some m0 else None) ~n
        in
        match Scl_sim.Dmat.gather ~root:0 m with Some full -> got := full | None -> ())
  in
  Alcotest.(check bool) "roundtrip" true (mat_close !got m0)

let test_dmat_transpose () =
  let n = 6 and procs = 9 in
  let f i j = float_of_int ((i * 10) + j) in
  let got = ref [||] in
  let _ =
    run ~procs (fun comm ->
        let m = Scl_sim.Dmat.init comm ~n f in
        match Scl_sim.Dmat.gather ~root:0 (Scl_sim.Dmat.transpose m) with
        | Some full -> got := full
        | None -> ())
  in
  Alcotest.(check bool) "transposed" true
    (mat_close !got (Array.init n (fun i -> Array.init n (fun j -> f j i))))

let test_dmat_rejects_bad_grid () =
  Alcotest.(check bool) "non-square comm" true
    (try
       ignore (run ~procs:6 (fun comm -> ignore (Scl_sim.Dmat.init comm ~n:6 (fun _ _ -> 0.0))));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "grid side must divide n" true
    (try
       ignore (run ~procs:4 (fun comm -> ignore (Scl_sim.Dmat.init comm ~n:7 (fun _ _ -> 0.0))));
       false
     with Invalid_argument _ -> true)

let seq_matmul = Scl_sim.Dmat.local_matmul

let prop_summa_matches_seq =
  qtest ~count:12 "SUMMA = sequential matmul"
    QCheck.(pair (int_range 1 3) (int_range 1 3))
    (fun (q, scale) ->
      let n = q * scale in
      let rng = Runtime.Xoshiro.of_seed ((q * 17) + scale) in
      let a = Array.init n (fun _ -> Array.init n (fun _ -> Runtime.Xoshiro.float rng 2.0 -. 1.0)) in
      let b = Array.init n (fun _ -> Array.init n (fun _ -> Runtime.Xoshiro.float rng 2.0 -. 1.0)) in
      let c, _ = Algorithms.Summa.multiply (Backend.sim ()) ~grid:q a b in
      mat_close c (seq_matmul a b))

let test_summa_vs_cannon_cost () =
  (* Cannon shifts blocks to torus neighbours (one latency per round);
     SUMMA broadcasts along rows and columns (log q latencies per round).
     Under a latency-dominated cost model Cannon must win. *)
  let n = 48 in
  let rng = Runtime.Xoshiro.of_seed 12 in
  let a = Array.init n (fun _ -> Array.init n (fun _ -> Runtime.Xoshiro.float rng 1.0)) in
  let b = Array.init n (fun _ -> Array.init n (fun _ -> Runtime.Xoshiro.float rng 1.0)) in
  let latency_bound = { Cost_model.ap1000 with alpha = 1e-3 } in
  let c1, s_summa = Algorithms.Summa.multiply (Backend.sim ~cost:latency_bound ()) ~grid:4 a b in
  let c2, s_cannon = Algorithms.Cannon.multiply (Backend.sim ~cost:latency_bound ()) ~grid:4 a b in
  Alcotest.(check bool) "same product" true (mat_close c1 c2);
  Alcotest.(check bool) "cannon faster when latency dominates" true
    (s_cannon.Sim.makespan < s_summa.Sim.makespan)

(* --- Control (SPMD iterUntil / iterFor) ---------------------------------------- *)

let test_control_iter_until_conv () =
  (* Halving residuals: starts at 1.0, stops when < 1/32 -> 6 iterations,
     same count on every member. *)
  let iters = Array.make 4 0 in
  let _ =
    run ~procs:4 (fun comm ->
        let conv =
          Scl_sim.Control.iter_until_conv comm ~tol:(1.0 /. 32.0)
            ~step:(fun _ r -> (r /. 2.0, r /. 2.0))
            1.0
        in
        iters.(Comm.rank comm) <- conv.Scl_sim.Control.iterations)
  in
  Array.iter (fun i -> Alcotest.(check int) "six halvings" 6 i) iters

let test_control_residual_is_global_max () =
  (* One slow member keeps everyone iterating. *)
  let iters = ref 0 in
  let _ =
    run ~procs:4 (fun comm ->
        let me = Comm.rank comm in
        let conv =
          Scl_sim.Control.iter_until_conv comm ~tol:0.1
            ~step:(fun i _ ->
              (* member 3 converges in 5 steps, the rest immediately *)
              let r = if me = 3 && i < 4 then 1.0 else 0.0 in
              ((), r))
            ()
        in
        if me = 0 then iters := conv.Scl_sim.Control.iterations)
  in
  Alcotest.(check int) "held by slowest member" 5 !iters

let test_control_max_iter_cap () =
  let _ =
    run ~procs:2 (fun comm ->
        let conv =
          Scl_sim.Control.iter_until_conv comm ~max_iter:7 ~tol:0.0
            ~step:(fun _ () -> ((), 1.0))
            ()
        in
        if conv.Scl_sim.Control.iterations <> 7 then failwith "cap not respected")
  in
  ()

(* --- Fvec (flat tier) -----------------------------------------------------------
   The unboxed slice-tier vector must round-trip its contents bitwise, and
   a whole-row halo must travel as one bulk message. *)

let via_fvec ~procs (a : float array) : float array =
  let result, _ =
    run_collect ~procs (fun comm ->
        let fv =
          Scl_sim.Fvec.scatter comm ~root:0
            (if Comm.rank comm = 0 then Some (Scl.Flat.of_float_array a) else None)
        in
        Option.map Scl.Flat.to_float_array (Scl_sim.Fvec.gather ~root:0 fv))
  in
  result

let test_fvec_scatter_gather () =
  List.iter
    (fun n ->
      let a = Array.init n (fun i -> (float_of_int i *. 1.25) -. 3.0) in
      List.iter
        (fun procs ->
          Alcotest.(check (array (float 0.0)))
            (Printf.sprintf "roundtrip n=%d p=%d" n procs)
            a
            (via_fvec ~procs a))
        [ 1; 2; 4; 7 ])
    [ 0; 1; 5; 23 ]

let test_fvec_of_local () =
  (* uneven chunks, one of them empty: offsets are the prefix sums of the
     chunk lengths, and the gather concatenates the chunks in rank order *)
  let lens = [| 3; 0; 5; 1 |] in
  let offsets = Array.make 4 (-1) and totals = Array.make 4 (-1) in
  let gathered, _ =
    run_collect ~procs:4 (fun comm ->
        let me = Comm.rank comm in
        let chunk =
          Scl.Flat.of_float_array (Array.init lens.(me) (fun j -> float_of_int ((10 * me) + j)))
        in
        let fv = Scl_sim.Fvec.of_local comm chunk in
        offsets.(me) <- Scl_sim.Fvec.offset fv;
        totals.(me) <- Scl_sim.Fvec.total fv;
        Option.map Scl.Flat.to_float_array (Scl_sim.Fvec.gather ~root:0 fv))
  in
  Alcotest.(check (array int)) "offsets" [| 0; 3; 3; 8 |] offsets;
  Alcotest.(check (array int)) "totals" [| 9; 9; 9; 9 |] totals;
  Alcotest.(check (array (float 0.0)))
    "gathered" [| 0.; 1.; 2.; 20.; 21.; 22.; 23.; 24.; 30. |] gathered

let test_fvec_geometry_is_dvec () =
  (* a flat solver and its boxed oracle hold the same elements on every
     rank, including ranks that own none *)
  List.iter
    (fun (n, procs) ->
      let flat = Array.make procs (-1, -1) and boxed = Array.make procs (-1, -1) in
      let _ =
        run ~procs (fun comm ->
            let me = Comm.rank comm in
            let root x = if me = 0 then Some x else None in
            let fv = Scl_sim.Fvec.scatter comm ~root:0 (root (Scl.Flat.make Scl.Flat.float64 n 1.0)) in
            let dv = Scl_sim.Dvec.scatter comm ~root:0 (root (Array.make n 1.0)) in
            flat.(me) <- (Scl_sim.Fvec.offset fv, Scl.Flat.length (Scl_sim.Fvec.local fv));
            boxed.(me) <- (Scl_sim.Dvec.offset dv, Scl_sim.Dvec.local_length dv))
      in
      Alcotest.(check (array (pair int int)))
        (Printf.sprintf "offset and length n=%d p=%d" n procs)
        boxed flat)
    [ (0, 3); (2, 4); (5, 1); (10, 4); (23, 7) ]

let test_fvec_scatter_copies () =
  (* a scattered chunk is the member's own storage even where the engine
     hands the root's window over by reference: writing it changes
     neither the root's array nor another member's chunk *)
  let a = Array.init 12 float_of_int in
  let src = Scl.Flat.of_float_array a in
  let gathered, _ =
    Scl_sim.Spmd.run (Backend.multicore ~domains:1 ()) ~procs:3 (fun comm ->
        let fv =
          Scl_sim.Fvec.scatter comm ~root:0 (if Comm.rank comm = 0 then Some src else None)
        in
        let l = Scl_sim.Fvec.local fv in
        for j = 0 to Scl.Flat.length l - 1 do
          Scl.Flat.set l j (-.Scl.Flat.get l j)
        done;
        Option.map Scl.Flat.to_float_array (Scl_sim.Fvec.gather ~root:0 fv))
  in
  Alcotest.(check (array (float 0.0))) "root's array untouched" a (Scl.Flat.to_float_array src);
  Alcotest.(check (array (float 0.0))) "writes gathered" (Array.map Float.neg a) gathered

let test_halo_coalescing () =
  (* a whole-row halo is ONE bulk message per neighbour whatever the row
     width, and the simulator prices it at exactly 8 bytes/element *)
  let p = 4 and rows = 8 and n = 16 in
  let stats =
    run ~procs:p (fun comm ->
        let me = Comm.rank comm in
        let u = Scl.Flat.make Scl.Flat.float64 (rows * n) (float_of_int me) in
        if me > 0 then Comm.send_slice comm ~dest:(me - 1) (Scl.Flat.sub_view u ~pos:0 ~len:n);
        if me < p - 1 then
          Comm.send_slice comm ~dest:(me + 1) (Scl.Flat.sub_view u ~pos:((rows - 1) * n) ~len:n);
        if me > 0 then begin
          let h = Comm.recv_slice comm ~src:(me - 1) () in
          assert (Scl.Flat.length h = n && Scl.Flat.get h 0 = float_of_int (me - 1))
        end;
        if me < p - 1 then begin
          let h = Comm.recv_slice comm ~src:(me + 1) () in
          assert (Scl.Flat.length h = n && Scl.Flat.get h 0 = float_of_int (me + 1))
        end)
  in
  Alcotest.(check int) "one message per neighbour" (2 * (p - 1)) stats.Sim.total_msgs;
  Alcotest.(check int) "bytes-proportional pricing" (2 * (p - 1) * 8 * n) stats.Sim.total_bytes

let () =
  Alcotest.run "scl_sim"
    [
      ( "dvec",
        [
          Alcotest.test_case "scatter/gather" `Quick test_scatter_gather;
          Alcotest.test_case "empty vector" `Quick test_scatter_empty;
          Alcotest.test_case "offsets" `Quick test_offsets;
          Alcotest.test_case "map/imap" `Quick test_map_imap;
          Alcotest.test_case "fold" `Quick test_fold;
          Alcotest.test_case "fold order" `Quick test_fold_order;
          Alcotest.test_case "fold with empty chunks" `Quick test_fold_more_procs_than_elements;
          prop_scan_matches_reference;
          prop_rotate_matches_reference;
          prop_fetch_matches_reference;
          Alcotest.test_case "send" `Quick test_send_matches_reference;
          Alcotest.test_case "applybrdcast" `Quick test_applybrdcast;
          Alcotest.test_case "allgather" `Quick test_allgather;
        ] );
      ( "costs",
        [
          Alcotest.test_case "map charges work" `Quick test_map_charges_work;
          Alcotest.test_case "scaling" `Quick test_more_procs_is_faster;
          Alcotest.test_case "rotate economy" `Quick test_rotate_message_economy;
        ] );
      ( "dmat",
        [
          Alcotest.test_case "init/gather" `Quick test_dmat_init_gather;
          Alcotest.test_case "scatter/gather" `Quick test_dmat_scatter_gather;
          Alcotest.test_case "transpose" `Quick test_dmat_transpose;
          Alcotest.test_case "bad grids rejected" `Quick test_dmat_rejects_bad_grid;
          prop_summa_matches_seq;
          Alcotest.test_case "summa vs cannon bytes" `Quick test_summa_vs_cannon_cost;
        ] );
      ( "fvec",
        [
          Alcotest.test_case "scatter/gather roundtrip" `Quick test_fvec_scatter_gather;
          Alcotest.test_case "of_local offsets and total" `Quick test_fvec_of_local;
          Alcotest.test_case "scatter geometry = Dvec's" `Quick test_fvec_geometry_is_dvec;
          Alcotest.test_case "scattered chunk is private" `Quick test_fvec_scatter_copies;
          Alcotest.test_case "halo coalescing msg/byte counts" `Quick test_halo_coalescing;
        ] );
      ( "control",
        [
          Alcotest.test_case "iter_until_conv" `Quick test_control_iter_until_conv;
          Alcotest.test_case "global residual" `Quick test_control_residual_is_global_max;
          Alcotest.test_case "max_iter cap" `Quick test_control_max_iter_cap;
        ] );
    ]
