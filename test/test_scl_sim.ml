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

let test_control_iter_for () =
  Alcotest.(check int) "sum of indices" 10 (Scl_sim.Control.iter_for 5 (fun i acc -> acc + i) 0);
  Alcotest.(check bool) "negative rejected" true
    (try
       ignore (Scl_sim.Control.iter_for (-1) (fun _ x -> x) 0);
       false
     with Invalid_argument _ -> true)

(* --- Fvec (flat tier) -----------------------------------------------------------
   [Dvec] is the executable specification: the unboxed slice-tier vector
   must produce bitwise-identical contents, with coalesced bulk
   messaging. *)

let via_fvec ~procs op (a : float array) : float array =
  let result, _ =
    run_collect ~procs (fun comm ->
        let fv =
          Scl_sim.Fvec.scatter comm ~root:0
            (if Comm.rank comm = 0 then Some (Scl.Flat.of_float_array a) else None)
        in
        Option.map Scl.Flat.to_float_array (Scl_sim.Fvec.gather ~root:0 (op fv)))
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
            (via_fvec ~procs Fun.id a))
        [ 1; 2; 4; 7 ])
    [ 0; 1; 5; 23 ]

let test_fvec_allgather () =
  let a = Array.init 13 (fun i -> float_of_int (i * i)) in
  let got, _ =
    run_collect ~procs:4 (fun comm ->
        let fv =
          Scl_sim.Fvec.scatter comm ~root:0
            (if Comm.rank comm = 0 then Some (Scl.Flat.of_float_array a) else None)
        in
        let all = Scl_sim.Fvec.allgather fv in
        if Comm.rank comm = 3 then Some (Scl.Flat.to_float_array all) else None)
  in
  Alcotest.(check (array (float 0.0))) "allgather on a non-root member" a got

let prop_fvec_rotate_matches_dvec =
  qtest ~count:60 "Fvec.rotate = Dvec.rotate (bitwise)"
    QCheck.(
      triple
        (list_of_size (QCheck.Gen.int_range 0 40) (float_bound_exclusive 100.0))
        (int_range (-15) 15) (int_range 1 8))
    (fun (xs, k, procs) ->
      let a = Array.of_list xs in
      let boxed, _ =
        run_collect ~procs (fun comm ->
            let dv =
              Scl_sim.Dvec.scatter comm ~root:0 (if Comm.rank comm = 0 then Some a else None)
            in
            Scl_sim.Dvec.gather ~root:0 (Scl_sim.Dvec.rotate k dv))
      in
      via_fvec ~procs (Scl_sim.Fvec.rotate k) a = boxed)

let test_fvec_rotate_multicore () =
  (* same data through the multicore engine: contents must equal the
     simulator's bitwise (zero-copy slice path vs deep-copy sim path) *)
  let a = Array.init 23 (fun i -> (float_of_int i *. 1.5) +. 0.25) in
  List.iter
    (fun k ->
      let sim = via_fvec ~procs:4 (Scl_sim.Fvec.rotate k) a in
      let mc, _ =
        Scl_sim.Spmd.run (Backend.multicore ()) ~procs:4 (fun comm ->
            let fv =
              Scl_sim.Fvec.scatter comm ~root:0
                (if Comm.rank comm = 0 then Some (Scl.Flat.of_float_array a) else None)
            in
            Option.map Scl.Flat.to_float_array
              (Scl_sim.Fvec.gather ~root:0 (Scl_sim.Fvec.rotate k fv)))
      in
      Alcotest.(check (array (float 0.0))) (Printf.sprintf "k=%d" k) sim mc)
    [ -7; -1; 0; 3; 23; 30 ]

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

let test_fvec_rotate_message_economy () =
  (* rotate traffic itself: at most one coalesced message per (sender,
     destination) pair, measured by differencing against the construction
     traffic *)
  let mk comm =
    let me = Comm.rank comm in
    Scl_sim.Fvec.of_local comm
      (Scl.Flat.init Scl.Flat.float64 8 (fun i -> float_of_int ((me * 8) + i)))
  in
  let base = run ~procs:8 (fun comm -> ignore (mk comm)) in
  let full = run ~procs:8 (fun comm -> ignore (Scl_sim.Fvec.rotate 3 (mk comm))) in
  let rotate_msgs = full.Sim.total_msgs - base.Sim.total_msgs in
  Alcotest.(check bool)
    (Printf.sprintf "rotate msgs %d <= p" rotate_msgs)
    true (rotate_msgs <= 8)

let via_fvec_fetch_vs_dvec ~procs f (a : float array) : bool =
  let boxed, _ =
    run_collect ~procs (fun comm ->
        let dv =
          Scl_sim.Dvec.scatter comm ~root:0 (if Comm.rank comm = 0 then Some a else None)
        in
        Scl_sim.Dvec.gather ~root:0 (Scl_sim.Dvec.fetch f dv))
  in
  via_fvec ~procs (Scl_sim.Fvec.fetch f) a = boxed

let prop_fvec_fetch_matches_dvec =
  qtest ~count:40 "Fvec.fetch = Dvec.fetch (bitwise)"
    QCheck.(triple (int_range 1 40) (int_range 0 50) (int_range 1 6))
    (fun (n, k, procs) ->
      let a = Array.init n (fun i -> float_of_int (((i * 13) mod 32) - 16) *. 0.25) in
      via_fvec_fetch_vs_dvec ~procs (fun g -> (g + k) mod n) a)

let test_fvec_fetch_patterns () =
  (* deterministic shapes beyond the shift: reverse (descending source
     order), a seeded random permutation (scattered singleton runs), and
     a constant slot (everyone fetches from one owner); p=1,2,4 against
     the boxed spec *)
  let n = 37 in
  let a = Array.init n (fun i -> float_of_int ((i * 7) mod 16) *. 0.5) in
  let rng = Runtime.Xoshiro.of_seed 99 in
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Runtime.Xoshiro.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  List.iter
    (fun (name, f) ->
      List.iter
        (fun procs ->
          Alcotest.(check bool)
            (Printf.sprintf "%s p=%d" name procs)
            true
            (via_fvec_fetch_vs_dvec ~procs f a))
        [ 1; 2; 4 ])
    [
      ("reverse", fun g -> n - 1 - g);
      ("random permutation", fun g -> perm.(g));
      ("constant slot", fun _ -> 17);
    ]

let test_fvec_fetch_out_of_range () =
  Alcotest.(check bool) "requester rejects out-of-range index" true
    (try
       ignore
         (via_fvec ~procs:2
            (Scl_sim.Fvec.fetch (fun g -> g + 1))
            (Array.init 8 float_of_int));
       false
     with Invalid_argument _ -> true)

let test_fvec_fetch_message_economy () =
  (* per-(sender,dest) run coalescing: a shift crosses at most two source
     blocks per member, so fetch traffic is at most 2 messages per member
     whatever the payload width — not one message per element *)
  let p = 8 in
  let mk comm =
    let me = Comm.rank comm in
    Scl_sim.Fvec.of_local comm
      (Scl.Flat.init Scl.Flat.float64 8 (fun i -> float_of_int ((me * 8) + i)))
  in
  let total = p * 8 in
  let f g = (g + 3) mod total in
  let base = run ~procs:p (fun comm -> ignore (mk comm)) in
  let full = run ~procs:p (fun comm -> ignore (Scl_sim.Fvec.fetch f (mk comm))) in
  let fetch_msgs = full.Sim.total_msgs - base.Sim.total_msgs in
  Alcotest.(check bool)
    (Printf.sprintf "fetch msgs %d <= 2p" fetch_msgs)
    true
    (fetch_msgs <= 2 * p)

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
          Alcotest.test_case "allgather" `Quick test_fvec_allgather;
          prop_fvec_rotate_matches_dvec;
          Alcotest.test_case "rotate on multicore = sim" `Quick test_fvec_rotate_multicore;
          Alcotest.test_case "halo coalescing msg/byte counts" `Quick test_halo_coalescing;
          Alcotest.test_case "rotate message economy" `Quick test_fvec_rotate_message_economy;
          prop_fvec_fetch_matches_dvec;
          Alcotest.test_case "fetch patterns vs boxed spec" `Quick test_fvec_fetch_patterns;
          Alcotest.test_case "fetch rejects out-of-range" `Quick test_fvec_fetch_out_of_range;
          Alcotest.test_case "fetch message economy" `Quick test_fvec_fetch_message_economy;
        ] );
      ( "control",
        [
          Alcotest.test_case "iter_until_conv" `Quick test_control_iter_until_conv;
          Alcotest.test_case "global residual" `Quick test_control_residual_is_global_max;
          Alcotest.test_case "max_iter cap" `Quick test_control_max_iter_cap;
          Alcotest.test_case "iter_for" `Quick test_control_iter_for;
        ] );
    ]
