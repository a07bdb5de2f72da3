(* Tests for the simulated distributed-memory machine: topologies, cost
   model, discrete-event simulator, collectives. *)

open Machine

module C = Engine_contract

let sim = Backend.sim ()

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let check_float msg expected actual =
  if not (feq expected actual) then Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* --- Topology ------------------------------------------------------------ *)

let test_hypercube_hops () =
  let h = Topology.Hypercube in
  Alcotest.(check int) "same" 0 (Topology.hops h ~procs:8 ~src:3 ~dest:3);
  Alcotest.(check int) "one bit" 1 (Topology.hops h ~procs:8 ~src:0 ~dest:4);
  Alcotest.(check int) "three bits" 3 (Topology.hops h ~procs:8 ~src:0 ~dest:7);
  Alcotest.(check int) "diameter" 5 (Topology.diameter h ~procs:32)

let test_hypercube_validate () =
  Alcotest.check_raises "non power of two"
    (Invalid_argument "Topology.validate: hypercube needs a power-of-two size, got 6") (fun () ->
      Topology.validate Topology.Hypercube ~procs:6)

let test_hypercube_neighbors () =
  let ns = Topology.neighbors Topology.Hypercube ~procs:8 5 in
  Alcotest.(check (list int)) "xor neighbours" [ 4; 7; 1 ] ns

let test_torus_hops () =
  let t = Topology.Torus2d (4, 4) in
  Alcotest.(check int) "adjacent" 1 (Topology.hops t ~procs:16 ~src:0 ~dest:1);
  (* 0 = (0,0), 15 = (3,3): wraps to 1+1 = 2 hops *)
  Alcotest.(check int) "wraparound" 2 (Topology.hops t ~procs:16 ~src:0 ~dest:15);
  Alcotest.(check int) "mid" 4 (Topology.hops t ~procs:16 ~src:0 ~dest:10)

let test_mesh_hops () =
  let m = Topology.Mesh2d (4, 4) in
  Alcotest.(check int) "corner to corner" 6 (Topology.hops m ~procs:16 ~src:0 ~dest:15);
  Alcotest.(check int) "no wrap" 3 (Topology.hops m ~procs:16 ~src:0 ~dest:3)

let test_ring_hops () =
  Alcotest.(check int) "short way" 2 (Topology.hops Topology.Ring ~procs:8 ~src:1 ~dest:7);
  Alcotest.(check int) "half" 4 (Topology.hops Topology.Ring ~procs:8 ~src:0 ~dest:4)

let test_star_hops () =
  Alcotest.(check int) "via centre" 2 (Topology.hops Topology.Star ~procs:5 ~src:1 ~dest:2);
  Alcotest.(check int) "to centre" 1 (Topology.hops Topology.Star ~procs:5 ~src:3 ~dest:0)

let prop_hops_symmetric =
  qtest "hops are symmetric"
    QCheck.(triple (int_range 0 15) (int_range 0 15) (int_range 0 3))
    (fun (a, b, which) ->
      let topo =
        match which with
        | 0 -> Topology.Hypercube
        | 1 -> Topology.Torus2d (4, 4)
        | 2 -> Topology.Ring
        | _ -> Topology.Mesh2d (2, 8)
      in
      Topology.hops topo ~procs:16 ~src:a ~dest:b = Topology.hops topo ~procs:16 ~src:b ~dest:a)

let prop_neighbors_are_one_hop =
  qtest "neighbors are exactly one hop away"
    QCheck.(pair (int_range 0 15) (int_range 0 3))
    (fun (r, which) ->
      let topo =
        match which with
        | 0 -> Topology.Hypercube
        | 1 -> Topology.Torus2d (4, 4)
        | 2 -> Topology.Ring
        | _ -> Topology.Complete
      in
      List.for_all
        (fun n -> Topology.hops topo ~procs:16 ~src:r ~dest:n = 1)
        (Topology.neighbors topo ~procs:16 r))

(* --- Cost model ----------------------------------------------------------- *)

let test_transfer_time () =
  let c = Cost_model.unit_costs in
  (* alpha 1 + 2 hops * 1 + 10 bytes * 1 = 13 *)
  check_float "unit" 13.0 (Cost_model.transfer_time c ~hops:2 ~bytes:10)

let test_barrier_time () =
  let c = Cost_model.unit_costs in
  check_float "1 proc" 0.0 (Cost_model.barrier_time { c with barrier_base = 2.0 } ~procs:1);
  check_float "8 procs = 3 rounds" 6.0 (Cost_model.barrier_time { c with barrier_base = 2.0 } ~procs:8);
  check_float "5 procs = 3 rounds" 6.0 (Cost_model.barrier_time { c with barrier_base = 2.0 } ~procs:5)

let test_presets_sane () =
  List.iter
    (fun (c : Cost_model.t) ->
      Alcotest.(check bool) (c.name ^ " latencies positive") true (c.alpha >= 0.0 && c.beta >= 0.0);
      Alcotest.(check bool) (c.name ^ " flop positive") true (c.flop_time >= 0.0))
    [ Cost_model.ap1000; Cost_model.modern; Cost_model.zero_comm; Cost_model.unit_costs ]

(* --- Simulator ------------------------------------------------------------- *)

(* One [Engine.t] program on every rank of the simulator, at unit costs on
   a complete graph unless told otherwise; with [?trace], recorded there. *)
let simulate ?(procs = 4) ?(topology = Topology.Complete) ?(cost = Cost_model.unit_costs) ?trace
    program =
  let program = match trace with Some t -> Trace.run t program | None -> program in
  snd
    (Sim.run_collect ~cost ~topology ~procs (fun eng ->
         program eng;
         Some ()))

(* A slice of [n] floats: one message priced at [8 * n] bytes. *)
let floats n = Bigarray.Array1.init Bigarray.float64 Bigarray.c_layout n float_of_int

let test_sim_work_accumulates () =
  let stats = simulate ~procs:3 (fun eng -> eng.Engine.work (float_of_int (eng.Engine.rank + 1))) in
  check_float "makespan = max work" 3.0 stats.Sim.makespan;
  check_float "work p0" 1.0 stats.Sim.work_times.(0);
  check_float "work p2" 3.0 stats.Sim.work_times.(2)

let test_sim_negative_work_rejected () = C.argument_checks sim

let test_sim_message_roundtrip () =
  let got = ref None in
  let _stats =
    simulate ~procs:2 (fun eng ->
        if eng.Engine.rank = 0 then eng.Engine.send ~dest:1 ~tag:0 [ 1; 2; 3 ]
        else got := Some (eng.Engine.recv ~src:0 ~tag:0 () : int list))
  in
  Alcotest.(check (option (list int))) "payload" (Some [ 1; 2; 3 ]) !got

let test_sim_message_is_deep_copied () =
  (* Sends are marshalled: they must not share mutable state. *)
  let witness = ref 0 in
  let _ =
    simulate ~procs:2 (fun eng ->
        if eng.Engine.rank = 0 then begin
          let a = [| 1; 2; 3 |] in
          eng.Engine.send ~dest:1 ~tag:0 a;
          a.(0) <- 99
        end
        else begin
          let a : int array = eng.Engine.recv ~src:0 ~tag:0 () in
          witness := a.(0)
        end)
  in
  Alcotest.(check int) "receiver saw pre-mutation value" 1 !witness

let test_sim_timing_exact () =
  (* Unit costs, complete topology: send overhead 0; transfer = alpha(1) +
     hops(1)*1 + bytes*1, and a slice of n floats is 8n bytes. Receiver
     waits from t=0, recv overhead 0, so its finish time = 2 + 8n. *)
  let n = 2 in
  let stats =
    simulate ~procs:2 (fun eng ->
        if eng.Engine.rank = 0 then eng.Engine.send_slice ~dest:1 ~tag:0 (floats n)
        else ignore (eng.Engine.recv_slice ~src:0 ~tag:0 ()))
  in
  check_float "receiver clock" (2.0 +. float_of_int (8 * n)) stats.Sim.finish_times.(1);
  check_float "sender clock" 0.0 stats.Sim.finish_times.(0);
  Alcotest.(check int) "bytes accounted" (8 * n) stats.Sim.total_bytes

let test_sim_recv_waits_for_arrival () =
  (* Sender works 5s then sends an empty slice (arrival 5 + 2 + 0 = 7);
     receiver is idle, so it finishes at the arrival time. *)
  let stats =
    simulate ~procs:2 (fun eng ->
        if eng.Engine.rank = 0 then begin
          eng.Engine.work 5.0;
          eng.Engine.send_slice ~dest:1 ~tag:0 (floats 0)
        end
        else ignore (eng.Engine.recv_slice ~src:0 ~tag:0 ()))
  in
  check_float "receiver waited" 7.0 stats.Sim.finish_times.(1)

let test_sim_fifo_order () =
  let order = ref [] in
  let _ =
    simulate ~procs:2 (fun eng ->
        if eng.Engine.rank = 0 then begin
          eng.Engine.send ~dest:1 ~tag:0 "first";
          eng.Engine.send ~dest:1 ~tag:0 "second";
          eng.Engine.send ~dest:1 ~tag:0 "third"
        end
        else
          for _ = 1 to 3 do
            let s : string = eng.Engine.recv ~src:0 ~tag:0 () in
            order := s :: !order
          done)
  in
  Alcotest.(check (list string)) "fifo per sender" [ "third"; "second"; "first" ] !order

let test_sim_tags_select () =
  let got = ref [] in
  let _ =
    simulate ~procs:2 (fun eng ->
        if eng.Engine.rank = 0 then begin
          eng.Engine.send ~dest:1 ~tag:7 "seven";
          eng.Engine.send ~dest:1 ~tag:9 "nine"
        end
        else begin
          (* Receive tag 9 first even though tag 7 was sent first. *)
          let a : string = eng.Engine.recv ~src:0 ~tag:9 () in
          let b : string = eng.Engine.recv ~src:0 ~tag:7 () in
          got := [ a; b ]
        end)
  in
  Alcotest.(check (list string)) "tag matching" [ "nine"; "seven" ] !got

let test_sim_recv_any () =
  let srcs = ref [] in
  let _ =
    simulate ~procs:4 (fun eng ->
        let me = eng.Engine.rank in
        if me > 0 then begin
          eng.Engine.work (float_of_int me);
          eng.Engine.send ~dest:0 ~tag:0 me
        end
        else
          for _ = 1 to 3 do
            let src, v = (eng.Engine.recv_any () : int * int) in
            if src <> v then failwith "payload mismatch";
            srcs := src :: !srcs
          done)
  in
  (* Earliest arrival first: senders finish work at t=1,2,3. *)
  Alcotest.(check (list int)) "arrival order" [ 3; 2; 1 ] !srcs

let test_sim_barrier_aligns_clocks () =
  (* Comm.barrier: nobody leaves before the slowest rank's work (3 s) *)
  let stats =
    simulate ~procs:4 (fun eng ->
        eng.Engine.work (float_of_int eng.Engine.rank);
        Comm.barrier (Comm.world eng))
  in
  Array.iter
    (fun t -> Alcotest.(check bool) "left after the slowest work" true (t >= 3.0))
    stats.Sim.finish_times

let test_sim_deadlock_detected () = C.mutual_recv_deadlock sim

let test_sim_barrier_mismatch_detected () =
  (* rank 1 finishes while rank 0 waits in the barrier for it *)
  ignore
    (C.expect_deadlock "barrier with a finished member" (fun () ->
         simulate ~procs:2 (fun eng -> if eng.Engine.rank = 0 then Comm.barrier (Comm.world eng))))

let test_sim_undelivered_detected () = C.undelivered_message sim
let test_sim_self_send_rejected () = C.self_send_rejected sim

let test_sim_deterministic () =
  let go () =
    simulate ~procs:8 ~topology:Topology.Hypercube ~cost:Cost_model.ap1000 (fun eng ->
        let me = eng.Engine.rank in
        eng.Engine.work (0.001 *. float_of_int ((me * 7) mod 5));
        if me > 0 then eng.Engine.send ~dest:0 ~tag:0 me
        else
          for _ = 1 to 7 do
            ignore (eng.Engine.recv_any ~tag:0 () : int * int)
          done;
        Comm.barrier (Comm.world eng))
  in
  let s1 = go () and s2 = go () in
  check_float "same makespan" s1.Sim.makespan s2.Sim.makespan;
  Alcotest.(check int) "same msgs" s1.Sim.total_msgs s2.Sim.total_msgs

let test_sim_trace_records () =
  let trace = Trace.create () in
  let _ =
    simulate ~trace ~procs:2 (fun eng ->
        if eng.Engine.rank = 0 then begin
          eng.Engine.note "hello";
          eng.Engine.send ~dest:1 ~tag:0 ()
        end
        else (eng.Engine.recv ~src:0 ~tag:0 () : unit))
  in
  let evs = Trace.events trace in
  Alcotest.(check bool) "has events" true (List.length evs >= 4);
  let notes = Trace.notes trace in
  Alcotest.(check int) "one note" 1 (List.length notes);
  let has_send = List.exists (fun e -> match e.Trace.kind with Trace.Send _ -> true | _ -> false) evs in
  let has_recv = List.exists (fun e -> match e.Trace.kind with Trace.Recv _ -> true | _ -> false) evs in
  Alcotest.(check bool) "send+recv traced" true (has_send && has_recv)

let test_sim_run_collect () =
  let v, _ =
    Sim.run_collect ~procs:4 (fun eng -> if eng.Engine.rank = 0 then Some "root" else None)
  in
  Alcotest.(check string) "collected" "root" v

let test_sim_hypercube_transfer_hops_priced () =
  (* 0 -> 7 on a 3-cube is 3 hops: transfer = 1 + 3 + 8 bytes. *)
  let stats =
    simulate ~procs:8 ~topology:Topology.Hypercube (fun eng ->
        if eng.Engine.rank = 0 then eng.Engine.send_slice ~dest:7 ~tag:0 (floats 1)
        else if eng.Engine.rank = 7 then ignore (eng.Engine.recv_slice ~src:0 ~tag:0 ()))
  in
  check_float "3 hops priced" 12.0 stats.Sim.finish_times.(7)

(* --- Collectives ------------------------------------------------------------ *)

let run_world ?procs ?topology ?cost f = simulate ?procs ?topology ?cost (fun eng -> f (Comm.world eng))

let test_comm_bcast () =
  let seen = Array.make 8 (-1) in
  let _ =
    run_world ~procs:8 ~topology:Topology.Hypercube (fun c ->
        let v = Comm.bcast c ~root:3 (if Comm.rank c = 3 then Some 42 else None) in
        seen.(Comm.rank c) <- v)
  in
  Array.iter (fun v -> Alcotest.(check int) "everyone got it" 42 v) seen

let test_comm_bcast_root_must_supply () =
  Alcotest.(check bool) "root None rejected" true
    (try
       ignore (run_world ~procs:2 (fun c -> ignore (Comm.bcast c ~root:0 (None : int option))));
       false
     with Invalid_argument _ -> true)

let test_comm_reduce () =
  let result = ref 0 in
  let _ =
    run_world ~procs:7 (fun c ->
        match Comm.reduce c ~root:0 ( + ) (Comm.rank c + 1) with
        | Some v -> result := v
        | None -> ())
  in
  Alcotest.(check int) "sum 1..7" 28 !result

let test_comm_reduce_order_preserved () =
  (* String concatenation is associative but not commutative: binomial
     reduction at root 0 must still produce rank order. *)
  let result = ref "" in
  let _ =
    run_world ~procs:5 (fun c ->
        match Comm.reduce c ~root:0 ( ^ ) (string_of_int (Comm.rank c)) with
        | Some v -> result := v
        | None -> ())
  in
  Alcotest.(check string) "rank order" "01234" !result

let test_comm_allreduce () =
  let ok = ref true in
  let _ =
    run_world ~procs:6 (fun c ->
        let v = Comm.allreduce c max (Comm.rank c * 10) in
        if v <> 50 then ok := false)
  in
  Alcotest.(check bool) "all got max" true !ok

let test_comm_gather () =
  let result = ref [||] in
  let _ =
    run_world ~procs:6 (fun c ->
        match Comm.gather c ~root:2 (Comm.rank c * Comm.rank c) with
        | Some arr -> result := arr
        | None -> ())
  in
  Alcotest.(check (array int)) "squares by rank" [| 0; 1; 4; 9; 16; 25 |] !result

let test_comm_allgather () =
  let ok = ref true in
  let _ =
    run_world ~procs:5 (fun c ->
        let arr = Comm.allgather c (Comm.rank c + 100) in
        if arr <> [| 100; 101; 102; 103; 104 |] then ok := false)
  in
  Alcotest.(check bool) "same everywhere" true !ok

let test_comm_scatter () =
  let got = Array.make 6 (-1) in
  let _ =
    run_world ~procs:6 (fun c ->
        let arr = if Comm.rank c = 1 then Some (Array.init 6 (fun i -> i * 7)) else None in
        got.(Comm.rank c) <- Comm.scatter c ~root:1 arr)
  in
  Alcotest.(check (array int)) "each rank its element" [| 0; 7; 14; 21; 28; 35 |] got

let test_comm_alltoall () =
  let ok = ref true in
  let _ =
    run_world ~procs:4 (fun c ->
        let me = Comm.rank c in
        let out = Comm.alltoall c (Array.init 4 (fun j -> (me, j))) in
        (* out.(j) is what j addressed to me: (j, me) *)
        Array.iteri (fun j (a, b) -> if a <> j || b <> me then ok := false) out)
  in
  Alcotest.(check bool) "transposed" true !ok

let test_comm_scan () =
  let got = Array.make 6 (-1) in
  let _ =
    run_world ~procs:6 (fun c ->
        got.(Comm.rank c) <- Comm.scan c ( + ) (Comm.rank c + 1))
  in
  Alcotest.(check (array int)) "prefix sums" [| 1; 3; 6; 10; 15; 21 |] got

let test_comm_scan_non_commutative () =
  let got = Array.make 4 "" in
  let _ =
    run_world ~procs:4 (fun c -> got.(Comm.rank c) <- Comm.scan c ( ^ ) (string_of_int (Comm.rank c)))
  in
  Alcotest.(check (array string)) "ordered prefixes" [| "0"; "01"; "012"; "0123" |] got

let test_comm_split () =
  let sizes = Array.make 8 0 in
  let subrank_sum = Array.make 8 0 in
  let _ =
    run_world ~procs:8 (fun c ->
        let me = Comm.rank c in
        let sub = Comm.split c ~color:(me mod 2) ~key:me in
        sizes.(me) <- Comm.size sub;
        (* Sum of ranks within the even group, computed in the subgroup. *)
        subrank_sum.(me) <- Comm.allreduce sub ( + ) (Comm.rank sub))
  in
  Array.iter (fun s -> Alcotest.(check int) "split halves" 4 s) sizes;
  Array.iter (fun s -> Alcotest.(check int) "subgroup ranks 0..3" 6 s) subrank_sum

let test_comm_split_groups_isolated () =
  (* Each subgroup reduces only its own members' values. *)
  let results = Array.make 8 0 in
  let _ =
    run_world ~procs:8 (fun c ->
        let me = Comm.rank c in
        let sub = Comm.split c ~color:(me / 4) ~key:me in
        results.(me) <- Comm.allreduce sub ( + ) me)
  in
  for i = 0 to 3 do
    Alcotest.(check int) "low group" 6 results.(i)
  done;
  for i = 4 to 7 do
    Alcotest.(check int) "high group" 22 results.(i)
  done

let test_comm_barrier () =
  (* Group barrier must synchronise clocks at least to the slowest member. *)
  let stats =
    simulate ~procs:4 (fun eng ->
        let c = Comm.world eng in
        eng.Engine.work (float_of_int eng.Engine.rank *. 10.0);
        Comm.barrier c)
  in
  Array.iter
    (fun t -> Alcotest.(check bool) "nobody leaves early" true (t >= 30.0))
    stats.Sim.finish_times

let test_comm_exchange () =
  let ok = ref true in
  let _ =
    run_world ~procs:4 (fun c ->
        let me = Comm.rank c in
        let partner = me lxor 1 in
        let v = Comm.exchange c ~partner (me * 11) in
        if v <> partner * 11 then ok := false)
  in
  Alcotest.(check bool) "pairwise swap" true !ok

let test_comm_pipelined_collectives () =
  (* Back-to-back collectives must not cross-talk even when members race
     ahead: interleave reduce and bcast many times. *)
  let ok = ref true in
  let _ =
    run_world ~procs:5 (fun c ->
        for round = 1 to 20 do
          let s = Comm.allreduce c ( + ) round in
          if s <> 5 * round then ok := false;
          let b = Comm.bcast c ~root:(round mod 5) (if Comm.rank c = round mod 5 then Some round else None) in
          if b <> round then ok := false
        done)
  in
  Alcotest.(check bool) "no cross-talk over 40 collectives" true !ok

let prop_collectives_arbitrary_sizes =
  qtest ~count:30 "reduce/gather/scan agree with references at any size"
    QCheck.(int_range 1 12)
    (fun procs ->
      let sum = ref (-1) and arr = ref [||] in
      let scans = Array.make procs (-1) in
      let _ =
        run_world ~procs (fun c ->
            (match Comm.reduce c ~root:0 ( + ) (Comm.rank c) with
            | Some v -> sum := v
            | None -> ());
            (match Comm.gather c ~root:0 (Comm.rank c * 2) with
            | Some a -> arr := a
            | None -> ());
            scans.(Comm.rank c) <- Comm.scan c ( + ) 1)
      in
      !sum = procs * (procs - 1) / 2
      && !arr = Array.init procs (fun i -> i * 2)
      && scans = Array.init procs (fun i -> i + 1))

(* --- additional simulator coverage ------------------------------------------ *)

let test_sim_single_processor () =
  (* barriers and local work degenerate correctly at P = 1 *)
  let stats =
    simulate ~procs:1 (fun eng ->
        eng.Engine.work 2.0;
        Comm.barrier (Comm.world eng);
        eng.Engine.work 3.0)
  in
  check_float "P=1 runs" 5.0 stats.Sim.makespan;
  Alcotest.(check int) "no messages" 0 stats.Sim.total_msgs

let test_sim_topology_changes_cost () =
  (* The same program priced on different topologies: star (2 hops between
     leaves) must cost more than complete (1 hop). *)
  let program eng =
    if eng.Engine.rank = 1 then eng.Engine.send_slice ~dest:2 ~tag:0 (floats 125)
    else if eng.Engine.rank = 2 then ignore (eng.Engine.recv_slice ~src:1 ~tag:0 ())
  in
  let t topology = (simulate ~procs:4 ~topology ~cost:Cost_model.ap1000 program).Sim.makespan in
  Alcotest.(check bool) "star is slower between leaves" true (t Topology.Star > t Topology.Complete);
  Alcotest.(check bool) "ring 1->2 neighbours = complete" true
    (Float.abs (t Topology.Ring -. t Topology.Complete) < 1e-12)

let test_sim_bigger_messages_cost_more () =
  let t bytes =
    (simulate ~procs:2 ~cost:Cost_model.ap1000 (fun eng ->
         if eng.Engine.rank = 0 then eng.Engine.send_slice ~dest:1 ~tag:0 (floats (bytes / 8))
         else ignore (eng.Engine.recv_slice ~src:0 ~tag:0 ()))).Sim.makespan
  in
  Alcotest.(check bool) "10x bytes > 1x bytes" true (t 100_000 > t 10_000)

let test_sim_marshalled_size_scales () =
  (* Sends marshal: a bigger array must register more bytes. *)
  let bytes n =
    (simulate ~procs:2 (fun eng ->
         if eng.Engine.rank = 0 then eng.Engine.send ~dest:1 ~tag:0 (Array.make n 7)
         else ignore (eng.Engine.recv ~src:0 ~tag:0 () : int array))).Sim.total_bytes
  in
  Alcotest.(check bool) "1000 ints > 10 ints" true (bytes 1000 > bytes 10 + 500)

let test_sim_work_while_messages_fly () =
  (* Overlap: receiver computes while the message is in flight; completion
     time is max(compute, arrival), not the sum. *)
  let c = { Cost_model.unit_costs with alpha = 10.0 } in
  let stats =
    simulate ~procs:2 ~cost:c (fun eng ->
        if eng.Engine.rank = 0 then eng.Engine.send_slice ~dest:1 ~tag:0 (floats 0)
        else begin
          eng.Engine.work 6.0;
          ignore (eng.Engine.recv_slice ~src:0 ~tag:0 ())
        end)
  in
  (* arrival = alpha 10 + hop 1 = 11 > work 6 -> finish at 11 *)
  check_float "overlap" 11.0 stats.Sim.finish_times.(1)

let test_gantt_renders () =
  let trace = Trace.create () in
  let _ =
    simulate ~trace ~procs:2 (fun eng ->
        eng.Engine.work 1.0;
        if eng.Engine.rank = 0 then eng.Engine.send ~dest:1 ~tag:0 ()
        else (eng.Engine.recv ~src:0 ~tag:0 () : unit))
  in
  let s = Fmt.str "%a" (Trace.pp_gantt ~width:40) trace in
  Alcotest.(check bool) "rows for both procs" true
    (String.length s > 0
    && String.split_on_char '\n' s |> List.exists (fun l -> String.length l > 2 && l.[0] = 'p'))

let test_comm_of_ranks_requires_membership () =
  Alcotest.(check bool) "non-member rejected" true
    (try
       ignore
         (simulate ~procs:4 (fun eng ->
              if eng.Engine.rank = 3 then ignore (Comm.of_ranks eng ~context:1 [| 0; 1 |])));
       false
     with Invalid_argument _ -> true)

let test_comm_singleton () =
  (* All collectives must degenerate correctly on a singleton group. *)
  let ok = ref false in
  let _ =
    simulate ~procs:3 (fun eng ->
        if eng.Engine.rank = 0 then begin
          let c = Comm.of_ranks eng ~context:1 [| 0 |] in
          Comm.barrier c;
          let v = Comm.bcast c ~root:0 (Some 9) in
          let r = Comm.allreduce c ( + ) 5 in
          let g = Comm.allgather c 7 in
          let s = Comm.scan c ( + ) 3 in
          ok := v = 9 && r = 5 && g = [| 7 |] && s = 3
        end)
  in
  Alcotest.(check bool) "singleton collectives" true !ok

let test_comm_nested_split_hierarchy () =
  (* Split twice: quarters of an 8-group; each quarter reduces its own. *)
  let results = Array.make 8 0 in
  let _ =
    run_world ~procs:8 (fun w ->
        let half = Comm.split w ~color:(Comm.rank w / 4) ~key:(Comm.rank w) in
        let quarter = Comm.split half ~color:(Comm.rank half / 2) ~key:(Comm.rank half) in
        results.(Comm.rank w) <- Comm.allreduce quarter ( + ) (Comm.rank w))
  in
  Alcotest.(check (array int)) "pairwise sums" [| 1; 1; 5; 5; 9; 9; 13; 13 |] results

let test_sim_many_small_messages () =
  (* Stress the scheduler: a token ring with 200 laps terminates and the
     clock is exactly laps * procs * (unit transfer). *)
  let procs = 5 in
  let laps = 200 in
  let stats =
    simulate ~procs (fun eng ->
        let me = eng.Engine.rank in
        let next = (me + 1) mod procs and prev = (me + procs - 1) mod procs in
        let pass () = eng.Engine.send_slice ~dest:next ~tag:0 (floats 0) in
        let take () = ignore (eng.Engine.recv_slice ~src:prev ~tag:0 ()) in
        if me = 0 then begin
          pass ();
          for _ = 1 to laps - 1 do
            take ();
            pass ()
          done;
          take ()
        end
        else
          for _ = 1 to laps do
            take ();
            pass ()
          done)
  in
  Alcotest.(check int) "all messages" (laps * procs) stats.Sim.total_msgs;
  (* unit cost: alpha 1 + hop 1 per message *)
  check_float "ring time" (float_of_int (laps * procs) *. 2.0) stats.Sim.makespan

let prop_bcast_any_root_any_size =
  qtest ~count:40 "bcast reaches everyone for any root and size"
    QCheck.(pair (int_range 1 12) (int_range 0 11))
    (fun (procs, root) ->
      let root = root mod procs in
      let seen = Array.make procs (-1) in
      let _ =
        run_world ~procs (fun c ->
            seen.(Comm.rank c) <-
              Comm.bcast c ~root (if Comm.rank c = root then Some (root * 31) else None))
      in
      Array.for_all (fun v -> v = root * 31) seen)

let prop_alltoall_transpose =
  qtest ~count:30 "alltoall is a transpose for any size"
    QCheck.(int_range 1 10)
    (fun procs ->
      let ok = ref true in
      let _ =
        run_world ~procs (fun c ->
            let me = Comm.rank c in
            let out = Comm.alltoall c (Array.init procs (fun j -> (me * 100) + j)) in
            Array.iteri (fun j v -> if v <> (j * 100) + me then ok := false) out)
      in
      !ok)

let test_run_collect_per_rank_programs () =
  (* run_collect: distinct program per rank. *)
  let (), stats =
    Sim.run_collect ~cost:Cost_model.unit_costs ~procs:3 (fun eng ->
        (match eng.Engine.rank with
        | 0 -> eng.Engine.work 1.0
        | 1 -> eng.Engine.work 2.0
        | _ -> eng.Engine.work 3.0);
        Some ())
  in
  check_float "per-rank work" 3.0 stats.Sim.makespan

let test_imbalance_metric () =
  let balanced = simulate ~procs:4 (fun eng -> eng.Engine.work 2.0) in
  check_float "balanced = 1" 1.0 (Sim.imbalance balanced);
  let skewed =
    simulate ~procs:4 (fun eng -> eng.Engine.work (if eng.Engine.rank = 0 then 4.0 else 0.0))
  in
  check_float "one hot processor" 4.0 (Sim.imbalance skewed);
  let s = Fmt.str "%a" Sim.pp_stats skewed in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "pp mentions imbalance" true (contains s "imbalance")

(* --- reduce root sweep (the rotated-root ordering bug) ---------------------- *)

let test_comm_reduce_root_sweep () = C.reduce_root_sweep sim

let test_comm_allreduce_scan_order_sweep () =
  (* allreduce and scan with a non-commutative operator at every size *)
  for procs = 1 to 8 do
    let full = String.concat "" (List.init procs string_of_int) in
    let ars = Array.make procs "" in
    let scans = Array.make procs "" in
    let _ =
      run_world ~procs (fun c ->
          let me = Comm.rank c in
          ars.(me) <- Comm.allreduce c ( ^ ) (string_of_int me);
          scans.(me) <- Comm.scan c ( ^ ) (string_of_int me))
    in
    Array.iter (fun v -> Alcotest.(check string) "allreduce rank order" full v) ars;
    Array.iteri
      (fun i v -> Alcotest.(check string) "scan prefix" (String.sub full 0 (i + 1)) v)
      scans
  done

let test_comm_fresh_tag_boundary () =
  (* the last valid sequence number still works... *)
  let ok = ref false in
  let _ =
    run_world ~procs:2 (fun c ->
        Comm.unsafe_set_seq c ((1 lsl 24) - 1);
        Comm.barrier c;
        if Comm.rank c = 0 then ok := true)
  in
  Alcotest.(check bool) "seq 2^24 - 1 works" true !ok;
  (* ...and the next one fails loudly instead of wrapping into live tags *)
  Alcotest.(check bool) "seq 2^24 raises" true
    (try
       ignore (run_world ~procs:2 (fun c ->
           Comm.unsafe_set_seq c (1 lsl 24);
           Comm.barrier c));
       false
     with Invalid_argument _ -> true)

(* --- communicator contexts ------------------------------------------------- *)

let test_comm_context_tag_names () =
  let collective ~ctx seq op = Engine.tag_space lor (seq lsl 4) lor op lor (ctx lsl Engine.context_shift) in
  List.iter
    (fun (expected, tag) -> Alcotest.(check string) expected expected (Engine.tag_name tag))
    [
      ("bcast#3", collective ~ctx:0 3 Engine.opcode_bcast);
      ("bcast#3@c5", collective ~ctx:5 3 Engine.opcode_bcast);
      ("p2p@c2", collective ~ctx:2 0 Engine.opcode_sendrecv);
      ("user:4@c2", Engine.user_space lor 4 lor (2 lsl Engine.context_shift));
      ("user:4", Engine.user_space lor 4);
      ("17", 17);
    ]

let test_comm_p2p_isolated_per_communicator () =
  (* the same user tag on the world and on a child is two channels: rank 0
     sends on the child first, rank 2 receives on the world first *)
  let got = ref None in
  let _ =
    run_world ~procs:4 (fun c ->
        let child = Comm.split c ~color:(Comm.rank c mod 2) ~key:0 in
        match Comm.rank c with
        | 0 ->
            Comm.send child ~dest:1 ~tag:3 "child";
            Comm.send c ~dest:2 ~tag:3 "world"
        | 2 ->
            let (w : string) = Comm.recv c ~src:0 ~tag:3 () in
            let (k : string) = Comm.recv child ~src:0 ~tag:3 () in
            got := Some (w, k)
        | _ -> ())
  in
  Alcotest.(check (option (pair string string))) "each on its own" (Some ("world", "child")) !got

let test_comm_context_bound () =
  (* 31 nested first splits fit in the context's 31 bits; the 32nd fails
     loudly, before it sends anything *)
  let nest depth =
    run_world ~procs:1 (fun c ->
        let c = ref c in
        for _ = 1 to depth do
          c := Comm.split !c ~color:0 ~key:0
        done;
        ignore (Comm.allreduce !c ( + ) 1 : int))
  in
  ignore (nest 31);
  Alcotest.check_raises "split 32 deep"
    (Invalid_argument
       "Comm.split: context ids exhausted (split 0 of context 4294967294 needs more than 31 bits of \
        split codes)")
    (fun () -> ignore (nest 32));
  (* a communicator's 2nd and 3rd splits cost 3 bits each: 10 nested ones
     fit, 11 do not *)
  let third depth =
    run_world ~procs:1 (fun c ->
        let c = ref c in
        for _ = 1 to depth do
          ignore (Comm.split !c ~color:0 ~key:0);
          c := Comm.split !c ~color:0 ~key:0
        done)
  in
  ignore (third 10);
  Alcotest.(check bool) "11 second splits raise" true
    (match third 11 with _ -> false | exception Invalid_argument _ -> true)

(* --- recv deadlines (Fault.Timeout) ----------------------------------------- *)

let test_sim_recv_timeout_fires () =
  (* nobody ever sends: the receiver must time out at exactly t = deadline *)
  let caught = ref false in
  let stats =
    simulate ~procs:2 (fun eng ->
        if eng.Engine.rank = 1 then
          try ignore (eng.Engine.recv ~timeout:5.0 ~src:0 ~tag:0 () : int)
          with Fault.Timeout _ -> caught := true)
  in
  Alcotest.(check bool) "Timeout raised" true !caught;
  check_float "expired exactly at the deadline" 5.0 stats.Sim.finish_times.(1)

let test_sim_recv_timeout_not_taken_when_in_time () =
  (* arrival (t=5) beats the deadline (t=50): the empty slice is delivered
     and the receiver's clock is the arrival time, not the deadline *)
  let got = ref None in
  let stats =
    simulate ~procs:2 (fun eng ->
        if eng.Engine.rank = 0 then begin
          eng.Engine.work 3.0;
          eng.Engine.send_slice ~dest:1 ~tag:0 (floats 0)
        end
        else got := Some (Bigarray.Array1.dim (eng.Engine.recv_slice ~timeout:50.0 ~src:0 ~tag:0 ())))
  in
  Alcotest.(check (option int)) "delivered" (Some 0) !got;
  check_float "clock = arrival, not deadline" 5.0 stats.Sim.finish_times.(1)

let test_sim_recv_timeout_boundary_is_delivery () =
  (* arrival exactly AT the deadline counts as in time *)
  let got = ref None in
  let _ =
    simulate ~procs:2 (fun eng ->
        if eng.Engine.rank = 0 then begin
          eng.Engine.work 3.0;
          (* arrival = 3 + alpha 1 + hop 1 = 5 *)
          eng.Engine.send_slice ~dest:1 ~tag:0 (floats 0)
        end
        else got := Some (Bigarray.Array1.dim (eng.Engine.recv_slice ~timeout:5.0 ~src:0 ~tag:0 ())))
  in
  Alcotest.(check (option int)) "arrival == deadline delivers" (Some 0) !got

let test_sim_recv_timeout_retry_succeeds () =
  (* timeout/retry: first recv expires at t=1, the retry gets the message at
     its real arrival time t=5 — the packet is not lost by the timeout *)
  let got = ref None in
  let stats =
    simulate ~procs:2 (fun eng ->
        if eng.Engine.rank = 0 then begin
          eng.Engine.work 3.0;
          eng.Engine.send_slice ~dest:1 ~tag:0 (floats 0)
        end
        else begin
          (try ignore (eng.Engine.recv_slice ~timeout:1.0 ~src:0 ~tag:0 ())
           with Fault.Timeout _ -> ());
          got := Some (Bigarray.Array1.dim (eng.Engine.recv_slice ~timeout:10.0 ~src:0 ~tag:0 ()))
        end)
  in
  Alcotest.(check (option int)) "retry delivered" (Some 0) !got;
  check_float "clock = arrival" 5.0 stats.Sim.finish_times.(1)

let test_sim_negative_timeout_rejected () = C.argument_checks sim

(* --- fail-stop crashes (Fault.Crashed) -------------------------------------- *)

let test_sim_crash_is_fail_stop () =
  let stats = C.crash_is_fail_stop (Backend.sim ~cost:Cost_model.unit_costs ()) in
  check_float "live ranks finish" 2.0 stats.Sim.makespan

let test_sim_timeout_survives_peer_crash () = C.timed_recv_from_crashed_peer sim

(* --- chaos: deterministic fault injection ------------------------------------ *)

module Spmd = Scl_sim.Spmd

let collectives = Prop.Engine_oracle.collectives

(* wrapping with the zero-fault schedule must not change ANY simulated
   number: same values, same makespan bit-for-bit, same messages and bytes *)
let test_chaos_zero_fault_bit_identical () =
  C.oracle ~only:[ "zero-fault wrap" ] Prop.Engine_oracle.faults sim

(* The trace wrapper adds no engine operation: a traced sim run must give
   the bare run's values and statistics bit for bit (makespan, every
   rank's finish and work time, messages, bytes), as the zero-fault Chaos
   wrap does. *)
let same_sim_stats name (a : Sim.stats) (b : Sim.stats) =
  let bits = Array.map Int64.bits_of_float in
  Alcotest.(check int64) (name ^ ": makespan bits") (Int64.bits_of_float a.Sim.makespan)
    (Int64.bits_of_float b.Sim.makespan);
  Alcotest.(check (array int64)) (name ^ ": finish times") (bits a.Sim.finish_times)
    (bits b.Sim.finish_times);
  Alcotest.(check (array int64)) (name ^ ": work times") (bits a.Sim.work_times)
    (bits b.Sim.work_times);
  Alcotest.(check int) (name ^ ": msgs") a.Sim.total_msgs b.Sim.total_msgs;
  Alcotest.(check int) (name ^ ": bytes") a.Sim.total_bytes b.Sim.total_bytes

let traced_equals_bare name run =
  let trace = Trace.create () in
  let v0, s0 = run sim in
  let v1, s1 = run (Backend.sim ~trace ()) in
  Alcotest.(check bool) (name ^ ": values") true (v0 = v1);
  same_sim_stats name s0 s1;
  Trace.events trace

let test_trace_wrap_bit_identical () =
  let evs = traced_equals_bare "collectives" (fun be -> Spmd.run be ~procs:4 collectives) in
  Alcotest.(check bool) "collectives recorded" true (evs <> []);
  let keys = Array.init 300 (fun i -> (i * 7919) mod 1000) in
  let evs =
    traced_equals_bare "sort_flatint" (fun be -> Algorithms.Hyperquicksort.sort_flatint be ~procs:4 keys)
  in
  Alcotest.(check bool) "sort_flatint recorded" true (evs <> []);
  (* the dynamic farm under delays, with a worker crashing mid-run: its
     master re-deals the lost job after a grace timeout *)
  let chaos = { (Chaos.delays ~seed:5 ~prob:0.5 ()) with Chaos.crashes = [ (2, 4) ] } in
  let spec = Algorithms.Farm_sim.skewed_spec ~njobs:24 ~skew:6 in
  let evs =
    traced_equals_bare "farm" (fun be -> Algorithms.Farm_sim.dynamic be ~procs:4 ~grace:0.5 ~chaos spec)
  in
  Alcotest.(check bool) "farm crash recorded" true
    (List.exists (fun e -> e.Trace.proc = 2 && e.Trace.kind = Trace.Note "crashed") evs)

(* Rank 1 computes, sends once, and crashes (Chaos) at its second send;
   rank 0 takes the first message, then waits for a second that never
   comes. *)
let crash_then_timeout c =
  if Comm.rank c = 1 then begin
    Comm.work c 1.0;
    Comm.send c ~dest:0 1;
    Comm.work c 2.0;
    Comm.send c ~dest:0 2;
    None
  end
  else begin
    let first : int = Comm.recv c ~src:1 () in
    (try ignore (Comm.recv c ~src:1 ~timeout:50.0 () : int) with Fault.Timeout _ -> ());
    Some first
  end

let test_trace_crash_and_timeout_notes () =
  let trace = Trace.create () in
  let chaos = { Chaos.none with Chaos.crashes = [ (1, 2) ] } in
  let v, _ =
    Spmd.run (Backend.sim ~cost:Cost_model.unit_costs ~trace ()) ~procs:2 ~chaos crash_then_timeout
  in
  Alcotest.(check int) "first message arrived" 1 v;
  (* each rank's notes and finish, with the times a run with the
     simulator's own recording gave *)
  let marks p =
    List.filter_map
      (fun e ->
        match e.Trace.kind with
        | Trace.Note s when e.Trace.proc = p -> Some (e.Trace.time, s)
        | Trace.Finish when e.Trace.proc = p -> Some (e.Trace.time, "finish")
        | _ -> None)
      (Trace.events trace)
  in
  let pinned = Alcotest.(list (pair (float 0.0) string)) in
  Alcotest.check pinned "rank 1 crashes at its second send" [ (3.0, "crashed"); (3.0, "finish") ] (marks 1);
  Alcotest.check pinned "rank 0's receive expires" [ (74.0, "recv timeout"); (74.0, "finish") ] (marks 0)

let test_chaos_delays_value_identical () =
  C.oracle ~seeds:C.delay_seeds ~only:[ "chaos-delay" ] Prop.Engine_oracle.faults sim

let test_chaos_delays_are_deterministic () =
  (* same seed: bit-identical simulated stats; the perturbation replays *)
  let spec = Chaos.delays ~seed:9 ~prob:0.5 () in
  let v1, s1 = Spmd.run sim ~procs:4 ~chaos:spec collectives in
  let v2, s2 = Spmd.run sim ~procs:4 ~chaos:spec collectives in
  Alcotest.(check bool) "values replay" true (v1 = v2);
  Alcotest.(check bool) "makespan replays" true (s1.Sim.makespan = s2.Sim.makespan);
  Alcotest.(check int) "msgs replay" s1.Sim.total_msgs s2.Sim.total_msgs

(* Even ranks send boxed values and slices, alternately on one channel,
   to the odd rank above them, computing between sends; the odd ranks
   receive each and compute.  A held send fires at a later operation,
   so later in simulated time, and its receiver waits for it: the
   makespan shows every hold. *)
let chaos_mixed_sends c =
  let me = Comm.rank c in
  let got =
    if me mod 2 = 0 then begin
      for k = 0 to 7 do
        if k mod 2 = 0 then Comm.send c ~dest:(me + 1) (me, k)
        else
          Comm.send_slice c ~dest:(me + 1) (Scl.Flat.make Scl.Flat.float64 (16 * k) (float_of_int me));
        Comm.work c 1e-4
      done;
      []
    end
    else
      List.init 8 (fun k ->
          let v =
            if k mod 2 = 0 then
              let r, k' = Comm.recv c ~src:(me - 1) () in
              float_of_int ((10 * r) + k')
            else
              let (s : Scl.Flat.float1) = Comm.recv_slice c ~src:(me - 1) () in
              Scl.Flat.get s 0 +. float_of_int (Scl.Flat.length s)
          in
          Comm.work c 5e-5;
          v)
  in
  Option.map Array.to_list (Comm.gather c ~root:0 got)

(* Each seed's schedule gives the unwrapped run's values and pinned
   simulated stats (the makespan's bits, messages, bytes), so a change to
   which sends are held, or for how long, shows. *)
let test_chaos_mixed_sends_pinned () =
  let bare, _ = Spmd.run sim ~procs:4 chaos_mixed_sends in
  List.iter
    (fun (seed, makespan_bits) ->
      let spec = Chaos.delays ~seed ~prob:0.5 ~max_hold:3 () in
      let v, st = Spmd.run sim ~procs:4 ~chaos:spec chaos_mixed_sends in
      let name what = Printf.sprintf "seed %d %s" seed what in
      Alcotest.(check bool) (name "values") true (v = bare);
      Alcotest.(check int64) (name "makespan bits") makespan_bits
        (Int64.bits_of_float st.Sim.makespan);
      Alcotest.(check int) (name "msgs") 19 st.Sim.total_msgs;
      Alcotest.(check int) (name "bytes") 4599 st.Sim.total_bytes)
    [
      (1, 4562627133147658273L);
      (3, 4562282732435802117L);
      (7, 4562213188210644232L);
      (42, 4562213188210644232L);
    ]

let test_chaos_straggler_slows_but_preserves () =
  (* a per-rank stall tax changes timing, never values *)
  C.oracle ~only:[ "chaos-straggler" ] Prop.Engine_oracle.faults sim;
  let spec = { Chaos.none with Chaos.stalls = [ (1, 0.005) ] } in
  let _, s0 = Spmd.run sim ~procs:4 collectives in
  let _, s1 = Spmd.run sim ~procs:4 ~chaos:spec collectives in
  Alcotest.(check bool) "straggler visible in makespan" true (s1.Sim.makespan > s0.Sim.makespan)

let test_chaos_spec_validated () =
  let bad spec =
    try
      ignore (Spmd.run sim ~procs:2 ~chaos:spec (fun c -> Some (Comm.barrier c)));
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "probability > 1" true
    (bad { Chaos.none with Chaos.delay_prob = 1.5 });
  Alcotest.(check bool) "crash index 0" true
    (bad { Chaos.none with Chaos.crashes = [ (0, 0) ] });
  Alcotest.(check bool) "negative stall" true
    (bad { Chaos.none with Chaos.stalls = [ (1, -0.1) ] });
  Alcotest.(check bool) "NaN probability" true
    (bad { Chaos.none with Chaos.delay_prob = Float.nan });
  Alcotest.(check bool) "NaN stall" true
    (bad { Chaos.none with Chaos.stalls = [ (1, Float.nan) ] });
  Alcotest.(check bool) "NaN crash time" true
    (bad { Chaos.none with Chaos.crashes_at = [ (0, Float.nan) ] })

let test_chaos_crash_counts_faults () =
  (* a scheduled crash fires Fault.Crashed and bumps the fault counter *)
  let c = Obs.Counter.make "chaos.faults_injected" in
  Obs.enable ();
  let before = Obs.Counter.value c in
  let spec = { Chaos.none with Chaos.crashes = [ (1, 1) ] } in
  let (), stats =
    Spmd.run sim ~procs:2 ~chaos:spec (fun comm ->
        if Comm.rank comm = 1 then begin
          Comm.send comm ~dest:0 ();
          failwith "unreachable: rank 1 crashes on its first operation"
        end
        else
          try Some (Comm.recv comm ~src:1 ~timeout:1.0 ()) with Fault.Timeout _ -> Some ())
  in
  let after = Obs.Counter.value c in
  Obs.disable ();
  Alcotest.(check bool) "fault counted" true (after > before);
  Alcotest.(check bool) "run completed" true (stats.Sim.makespan >= 1.0)

(* --- sleep: idle time on both engines ---------------------------------- *)

let test_sim_sleep_advances_clock_not_work () =
  let stats =
    simulate ~procs:2 (fun eng ->
        if eng.Engine.rank = 0 then begin
          eng.Engine.sleep 7.0;
          eng.Engine.work 2.0
        end)
  in
  check_float "clock includes the sleep" 9.0 stats.Sim.finish_times.(0);
  check_float "work_time excludes it" 2.0 stats.Sim.work_times.(0)

let test_sim_sleep_negative_rejected () = C.argument_checks sim

(* Regression test for the scheduler's conservative ordering.  Rank 1
   free-runs (sleep never blocks) and sends a late-arriving message before
   rank 2 — a lower-priority fiber — has even started; rank 2's message
   arrives much earlier.  The receiver must still see arrival order, which
   requires (a) no eager in-fiber delivery and (b) ranking a delivery at
   max(clock, arrival), not at the receiver's clock. *)
let test_sim_sleep_paced_sender_keeps_arrival_order () =
  let order = ref [] in
  let _ =
    simulate ~procs:3 (fun eng ->
        match eng.Engine.rank with
        | 0 ->
            for _ = 1 to 2 do
              let src, (_ : int) = eng.Engine.recv_any () in
              order := src :: !order
            done
        | 1 ->
            eng.Engine.sleep 10.0;
            eng.Engine.send ~dest:0 ~tag:0 1
        | _ -> eng.Engine.send ~dest:0 ~tag:0 2)
  in
  Alcotest.(check (list int)) "earliest arrival first" [ 2; 1 ] (List.rev !order)

let test_multicore_sleep_completes () =
  (* wall-clock engine: a sleeping rank must not stall its domain (other
     fibers keep running) and the run must terminate promptly *)
  let (), stats =
    Spmd.run (Backend.multicore ~domains:2 ()) ~procs:3 (fun comm ->
        (match Comm.rank comm with
        | 0 ->
            let a = (Comm.recv_any comm () : int * int) in
            let b = (Comm.recv_any comm () : int * int) in
            assert (fst a >= 0 && fst b >= 0)
        | 1 ->
            Comm.sleep comm 0.02;
            Comm.send comm ~dest:0 1
        | _ -> Comm.send comm ~dest:0 2);
        Some ())
  in
  Alcotest.(check bool) "took at least the sleep" true (stats.Multicore.wall >= 0.02)

(* --- time-scheduled crashes -------------------------------------------- *)

let test_chaos_crashes_at_time () =
  (* rank 1 fail-stops at its first operation at-or-after t = 4: the send
     at t = 2 gets through, the one at t = 6 never happens *)
  let spec = { Chaos.none with Chaos.crashes_at = [ (1, 4.0) ] } in
  let got = ref [] in
  let _ =
    simulate ~procs:2 (fun eng ->
        if eng.Engine.rank = 1 then begin
          Chaos.run spec
            (fun eng ->
              eng.Engine.work 2.0;
              eng.Engine.send ~dest:0 ~tag:0 1;
              eng.Engine.work 4.0;
              eng.Engine.send ~dest:0 ~tag:0 2;
              failwith "unreachable: rank 1 crashed at t >= 4")
            eng
        end
        else begin
          (* unit costs price a marshalled int at ~25 simulated seconds of
             transfer, so the timeout must clear that comfortably *)
          (try
             while true do
               got := (eng.Engine.recv ~timeout:100.0 ~src:1 ~tag:0 () : int) :: !got
             done
           with Fault.Timeout _ -> ())
        end)
  in
  Alcotest.(check (list int)) "only the pre-crash send arrives" [ 1 ] (List.rev !got)

let test_chaos_crashes_at_validation () =
  Alcotest.check_raises "negative time" (Invalid_argument "Chaos.run: crash time must be >= 0")
    (fun () ->
      ignore
        (Spmd.run sim ~procs:2
           ~chaos:{ Chaos.none with Chaos.crashes_at = [ (0, -1.0) ] }
           (fun _ -> Some ())))

(* Seeded, shrinkable property: all collectives under any delay/reorder
   chaos schedule are value-identical to the fault-free run. *)
let test_prop_chaos_value_identity () =
  let gen =
    Prop.Gen.pair
      (Prop.Gen.pair (Prop.Gen.int_range 0 1_000_000) (Prop.Gen.int_range 2 8))
      (Prop.Gen.pair (Prop.Gen.int_range 0 10) (Prop.Gen.int_range 1 4))
  in
  let shrink =
    Prop.Shrink.pair
      (Prop.Shrink.pair Prop.Shrink.int (Prop.Shrink.int_toward 2))
      (Prop.Shrink.pair Prop.Shrink.int (Prop.Shrink.int_toward 1))
  in
  let prop ((seed, procs), (prob10, max_hold)) =
    if procs < 2 || procs > 8 || prob10 < 0 || prob10 > 10 || max_hold < 1 then
      Prop.Runner.Skip_case
    else begin
      let spec = Chaos.delays ~seed ~prob:(float_of_int prob10 /. 10.0) ~max_hold () in
      let bare, _ = Spmd.run sim ~procs collectives in
      let perturbed, _ = Spmd.run sim ~procs ~chaos:spec collectives in
      if perturbed = bare then Prop.Runner.Pass_case
      else Prop.Runner.Fail_case "chaos changed collective values"
    end
  in
  let config = { Prop.Runner.default with Prop.Runner.count = 40; seed = 1995 } in
  match Prop.Runner.check ~config ~shrink ~gen ~prop () with
  | Prop.Runner.Pass _ -> ()
  | Prop.Runner.Fail f ->
      Alcotest.failf "chaos value-identity failed: seed=%d procs=%d prob10=%d hold=%d (%s)"
        (fst (fst f.Prop.Runner.shrunk))
        (snd (fst f.Prop.Runner.shrunk))
        (fst (snd f.Prop.Runner.shrunk))
        (snd (snd f.Prop.Runner.shrunk))
        f.Prop.Runner.message
  | Prop.Runner.Gave_up _ -> Alcotest.fail "property gave up"

(* --- Mailbox: the matching rule every engine keeps its messages under --- *)

(* Take messages until [find] has none for the pattern, as (src, payload). *)
let drain_matching ?(src = -1) ?(tag = 0) ?(any_tag = false) box =
  let rec go acc =
    let i = Mailbox.find box ~src ~tag ~any_tag in
    if i < 0 then List.rev acc
    else
      let s = Mailbox.src box i in
      go ((s, Mailbox.take box i) :: acc)
  in
  go []

let test_mailbox_growth_wraps () =
  (* the head moves to 10, then 30 more pushes grow the ring while its
     live entries wrap around the end of the arrays *)
  let box = Mailbox.create "" in
  for k = 0 to 9 do
    Mailbox.push box ~src:(k mod 3) ~tag:0 (string_of_int k)
  done;
  for _ = 0 to 9 do
    ignore (Mailbox.take box 0)
  done;
  for k = 10 to 39 do
    Mailbox.push box ~src:(k mod 3) ~tag:0 (string_of_int k)
  done;
  Alcotest.(check int) "length" 30 (Mailbox.length box);
  Alcotest.(check (list (pair int string)))
    "push order kept"
    (List.init 30 (fun j -> ((j + 10) mod 3, string_of_int (j + 10))))
    (drain_matching ~any_tag:true box);
  Alcotest.(check int) "empty" 0 (Mailbox.length box)

let test_mailbox_middle_take_keeps_fifo () =
  let box = Mailbox.create "" in
  List.iter
    (fun (src, tag, v) -> Mailbox.push box ~src ~tag v)
    [ (0, 1, "a"); (1, 1, "b"); (0, 2, "c"); (0, 1, "d"); (1, 1, "e"); (0, 2, "f") ];
  let i = Mailbox.find box ~src:0 ~tag:2 ~any_tag:false in
  Alcotest.(check int) "oldest (0, 2) is third" 2 i;
  Alcotest.(check string) "taken from the middle" "c" (Mailbox.take box i);
  Alcotest.(check (list (pair int string))) "(1, 1) in order" [ (1, "b"); (1, "e") ]
    (drain_matching ~src:1 ~tag:1 box);
  Alcotest.(check (list (pair int string))) "(0, 1) in order" [ (0, "a"); (0, "d") ]
    (drain_matching ~src:0 ~tag:1 box);
  Alcotest.(check (list (pair int string))) "(0, 2) rest" [ (0, "f") ] (drain_matching ~src:0 ~tag:2 box)

let test_mailbox_any_takes () =
  let box = Mailbox.create "" in
  List.iter
    (fun (src, tag, v) -> Mailbox.push box ~src ~tag v)
    [ (2, 7, "a"); (1, 8, "b"); (1, 7, "c"); (2, 8, "d"); (0, 9, "e") ];
  Alcotest.(check (list (pair int string))) "any source, tag 8" [ (1, "b"); (2, "d") ]
    (drain_matching ~tag:8 box);
  Alcotest.(check (list (pair int string))) "source 1, any tag" [ (1, "c") ]
    (drain_matching ~src:1 ~any_tag:true box);
  Alcotest.(check (list (pair int string))) "any source, any tag" [ (2, "a"); (0, "e") ]
    (drain_matching ~any_tag:true box)

let test_mailbox_heads () =
  let box = Mailbox.create "" in
  List.iter
    (fun (src, tag, v) -> Mailbox.push box ~src ~tag v)
    [ (3, 1, "a"); (5, 1, "b"); (3, 1, "c"); (5, 2, "d"); (7, 1, "e"); (5, 1, "f") ];
  let heads ~src ~tag ~any_tag =
    let got = ref [] in
    Mailbox.iter_heads box ~src ~tag ~any_tag (fun i -> got := Mailbox.payload box i :: !got);
    List.rev !got
  in
  Alcotest.(check (list string)) "per-source heads, oldest first" [ "a"; "b"; "e" ]
    (heads ~src:(-1) ~tag:1 ~any_tag:false);
  Alcotest.(check (list string)) "any tag" [ "a"; "b"; "e" ] (heads ~src:(-1) ~tag:0 ~any_tag:true);
  Alcotest.(check (list string)) "one source" [ "d" ] (heads ~src:5 ~tag:2 ~any_tag:false);
  Alcotest.(check int) "walking takes nothing" 6 (Mailbox.length box)

let test_mailbox_transfer_and_check () =
  let into = Mailbox.create "" and from = Mailbox.create "" in
  Mailbox.push into ~src:1 ~tag:5 "a";
  Mailbox.push from ~src:2 ~tag:6 "b";
  Mailbox.push from ~src:1 ~tag:5 "c";
  Alcotest.(check int) "moved" 2 (Mailbox.transfer from ~into);
  Alcotest.(check int) "source emptied" 0 (Mailbox.length from);
  Alcotest.(check (list (pair int string))) "appended in order" [ (1, "a"); (1, "c") ]
    (drain_matching ~src:1 ~tag:5 into);
  Mailbox.check_undelivered ~skip:(fun src -> src = 2) into ~rank:0;
  Alcotest.check_raises "reported"
    (Fault.Deadlock "processor 3 finished with 1 undelivered message(s); first from p2 tag 6")
    (fun () -> Mailbox.check_undelivered into ~rank:3)

(* The payload is made and pushed out of line, so no register or stack
   slot of the test keeps it alive. *)
let[@inline never] push_tracked box =
  let v = Bytes.make 64 'x' in
  let w = Weak.create 1 in
  Weak.set w 0 (Some v);
  Mailbox.push box ~src:0 ~tag:0 v;
  w

let test_mailbox_clear_releases () =
  let box = Mailbox.create Bytes.empty in
  let w = push_tracked box in
  Gc.full_major ();
  Alcotest.(check bool) "held while queued" true (Weak.check w 0);
  Mailbox.clear box;
  Gc.full_major ();
  Alcotest.(check bool) "released by clear" false (Weak.check w 0);
  Alcotest.(check int) "empty" 0 (Mailbox.length box)

(* --- the simulator's any-source rule ------------------------------------- *)

(* Arrival = send clock + payload bytes: no latency, no overheads. *)
let bytes_only = { Cost_model.unit_costs with Cost_model.alpha = 0.0; per_hop = 0.0 }

let test_sim_equal_arrivals_in_send_order () =
  (* rank 2 sends first (16 bytes, arriving at 16) and wakes rank 1 (8
     bytes, at 8), whose own 8-byte send then arrives at 16 too: the tie
     goes to the older send, not the lower source rank *)
  let order = ref [] in
  let _ =
    simulate ~procs:3 ~cost:bytes_only (fun eng ->
        match eng.Engine.rank with
        | 0 ->
            for _ = 1 to 2 do
              let src, (_ : Scl.Flat.float1) = eng.Engine.recv_any ~tag:0 () in
              order := (src, eng.Engine.time ()) :: !order
            done
        | 1 ->
            ignore (eng.Engine.recv_slice ~src:2 ~tag:1 () : Scl.Flat.float1);
            eng.Engine.send_slice ~dest:0 ~tag:0 (floats 1)
        | _ ->
            eng.Engine.send_slice ~dest:0 ~tag:0 (floats 2);
            eng.Engine.send_slice ~dest:1 ~tag:1 (floats 1))
  in
  Alcotest.(check (list (pair int (float 0.0)))) "older send first, both at 16"
    [ (2, 16.0); (1, 16.0) ] (List.rev !order)

let test_sim_late_head_blocks_its_source () =
  (* rank 1's first message arrives at 800 and its second at 8; rank 2's
     arrives at 8.  A timed recv_any takes rank 2's; rank 1's in-time
     message stays behind its late head, so the next timed one expires *)
  let got = ref [] in
  let stats =
    simulate ~procs:3 ~cost:bytes_only (fun eng ->
        match eng.Engine.rank with
        | 0 ->
            let take ?timeout () =
              match eng.Engine.recv_any ?timeout ~tag:0 () with
              | src, (s : Scl.Flat.float1) -> got := Printf.sprintf "p%d:%d" src (Scl.Flat.length s) :: !got
              | exception Fault.Timeout _ ->
                  got := Printf.sprintf "timeout@%g" (eng.Engine.time ()) :: !got
            in
            take ~timeout:100.0 ();
            take ~timeout:100.0 ();
            take ();
            take ()
        | 1 ->
            eng.Engine.send_slice ~dest:0 ~tag:0 (floats 100);
            eng.Engine.send_slice ~dest:0 ~tag:0 (floats 1)
        | _ -> eng.Engine.send_slice ~dest:0 ~tag:0 (floats 1))
  in
  Alcotest.(check (list string)) "rank 2's, then the deadline, then rank 1's in order"
    [ "p2:1"; "timeout@108"; "p1:100"; "p1:1" ] (List.rev !got);
  check_float "the late head arrives at 800" 800.0 stats.Sim.finish_times.(0)

let suite =
  [
    ( "topology",
      [
        Alcotest.test_case "hypercube hops" `Quick test_hypercube_hops;
        Alcotest.test_case "hypercube validate" `Quick test_hypercube_validate;
        Alcotest.test_case "hypercube neighbors" `Quick test_hypercube_neighbors;
        Alcotest.test_case "torus hops" `Quick test_torus_hops;
        Alcotest.test_case "mesh hops" `Quick test_mesh_hops;
        Alcotest.test_case "ring hops" `Quick test_ring_hops;
        Alcotest.test_case "star hops" `Quick test_star_hops;
        prop_hops_symmetric;
        prop_neighbors_are_one_hop;
      ] );
    ( "cost_model",
      [
        Alcotest.test_case "transfer time" `Quick test_transfer_time;
        Alcotest.test_case "barrier time" `Quick test_barrier_time;
        Alcotest.test_case "presets sane" `Quick test_presets_sane;
      ] );
    ( "sim",
      [
        Alcotest.test_case "work accumulates" `Quick test_sim_work_accumulates;
        Alcotest.test_case "negative work rejected" `Quick test_sim_negative_work_rejected;
        Alcotest.test_case "message roundtrip" `Quick test_sim_message_roundtrip;
        Alcotest.test_case "messages deep-copied" `Quick test_sim_message_is_deep_copied;
        Alcotest.test_case "timing exact" `Quick test_sim_timing_exact;
        Alcotest.test_case "recv waits for arrival" `Quick test_sim_recv_waits_for_arrival;
        Alcotest.test_case "fifo per sender" `Quick test_sim_fifo_order;
        Alcotest.test_case "tag matching" `Quick test_sim_tags_select;
        Alcotest.test_case "recv_any arrival order" `Quick test_sim_recv_any;
        Alcotest.test_case "barrier aligns clocks" `Quick test_sim_barrier_aligns_clocks;
        Alcotest.test_case "deadlock detected" `Quick test_sim_deadlock_detected;
        Alcotest.test_case "barrier mismatch detected" `Quick test_sim_barrier_mismatch_detected;
        Alcotest.test_case "undelivered detected" `Quick test_sim_undelivered_detected;
        Alcotest.test_case "self-send rejected" `Quick test_sim_self_send_rejected;
        Alcotest.test_case "deterministic" `Quick test_sim_deterministic;
        Alcotest.test_case "trace records" `Quick test_sim_trace_records;
        Alcotest.test_case "run_collect" `Quick test_sim_run_collect;
        Alcotest.test_case "hop pricing" `Quick test_sim_hypercube_transfer_hops_priced;
      ] );
    ( "comm",
      [
        Alcotest.test_case "bcast" `Quick test_comm_bcast;
        Alcotest.test_case "bcast requires root value" `Quick test_comm_bcast_root_must_supply;
        Alcotest.test_case "reduce" `Quick test_comm_reduce;
        Alcotest.test_case "reduce order" `Quick test_comm_reduce_order_preserved;
        Alcotest.test_case "allreduce" `Quick test_comm_allreduce;
        Alcotest.test_case "gather" `Quick test_comm_gather;
        Alcotest.test_case "allgather" `Quick test_comm_allgather;
        Alcotest.test_case "scatter" `Quick test_comm_scatter;
        Alcotest.test_case "alltoall" `Quick test_comm_alltoall;
        Alcotest.test_case "scan" `Quick test_comm_scan;
        Alcotest.test_case "scan non-commutative" `Quick test_comm_scan_non_commutative;
        Alcotest.test_case "split" `Quick test_comm_split;
        Alcotest.test_case "split isolation" `Quick test_comm_split_groups_isolated;
        Alcotest.test_case "group barrier" `Quick test_comm_barrier;
        Alcotest.test_case "exchange" `Quick test_comm_exchange;
        Alcotest.test_case "pipelined collectives" `Quick test_comm_pipelined_collectives;
        prop_collectives_arbitrary_sizes;
      ] );
    ( "mailbox",
      [
        Alcotest.test_case "growth wraps around" `Quick test_mailbox_growth_wraps;
        Alcotest.test_case "middle take keeps FIFO" `Quick test_mailbox_middle_take_keeps_fifo;
        Alcotest.test_case "any-tag and any-source" `Quick test_mailbox_any_takes;
        Alcotest.test_case "per-source heads" `Quick test_mailbox_heads;
        Alcotest.test_case "transfer and check" `Quick test_mailbox_transfer_and_check;
        Alcotest.test_case "clear releases payloads" `Quick test_mailbox_clear_releases;
        Alcotest.test_case "sim: equal arrivals in send order" `Quick
          test_sim_equal_arrivals_in_send_order;
        Alcotest.test_case "sim: late head blocks its source" `Quick
          test_sim_late_head_blocks_its_source;
      ] );
    ( "sim_extra",
      [
        Alcotest.test_case "single processor" `Quick test_sim_single_processor;
        Alcotest.test_case "topology pricing" `Quick test_sim_topology_changes_cost;
        Alcotest.test_case "message size pricing" `Quick test_sim_bigger_messages_cost_more;
        Alcotest.test_case "marshalled sizes" `Quick test_sim_marshalled_size_scales;
        Alcotest.test_case "compute/transfer overlap" `Quick test_sim_work_while_messages_fly;
        Alcotest.test_case "gantt renders" `Quick test_gantt_renders;
        Alcotest.test_case "token ring stress" `Quick test_sim_many_small_messages;
        Alcotest.test_case "run_collect per rank" `Quick test_run_collect_per_rank_programs;
        Alcotest.test_case "imbalance metric" `Quick test_imbalance_metric;
      ] );
    ( "comm_extra",
      [
        Alcotest.test_case "of_ranks membership" `Quick test_comm_of_ranks_requires_membership;
        Alcotest.test_case "singleton group" `Quick test_comm_singleton;
        Alcotest.test_case "nested splits" `Quick test_comm_nested_split_hierarchy;
        prop_bcast_any_root_any_size;
        prop_alltoall_transpose;
        Alcotest.test_case "reduce root sweep (non-commutative)" `Quick test_comm_reduce_root_sweep;
        Alcotest.test_case "allreduce/scan order sweep" `Quick test_comm_allreduce_scan_order_sweep;
        Alcotest.test_case "fresh_tag overflow boundary" `Quick test_comm_fresh_tag_boundary;
        Alcotest.test_case "context in tag names" `Quick test_comm_context_tag_names;
        Alcotest.test_case "p2p isolated per communicator" `Quick
          test_comm_p2p_isolated_per_communicator;
        Alcotest.test_case "context bound" `Quick test_comm_context_bound;
      ] );
    ( "faults",
      [
        Alcotest.test_case "recv timeout fires at deadline" `Quick test_sim_recv_timeout_fires;
        Alcotest.test_case "in-time delivery beats deadline" `Quick
          test_sim_recv_timeout_not_taken_when_in_time;
        Alcotest.test_case "arrival at deadline delivers" `Quick
          test_sim_recv_timeout_boundary_is_delivery;
        Alcotest.test_case "timeout then retry succeeds" `Quick test_sim_recv_timeout_retry_succeeds;
        Alcotest.test_case "negative timeout rejected" `Quick test_sim_negative_timeout_rejected;
        Alcotest.test_case "crash is fail-stop" `Quick test_sim_crash_is_fail_stop;
        Alcotest.test_case "timeout survives peer crash" `Quick test_sim_timeout_survives_peer_crash;
      ] );
    ( "sleep",
      [
        Alcotest.test_case "advances clock, not work_time" `Quick
          test_sim_sleep_advances_clock_not_work;
        Alcotest.test_case "negative rejected" `Quick test_sim_sleep_negative_rejected;
        Alcotest.test_case "paced sender keeps arrival order" `Quick
          test_sim_sleep_paced_sender_keeps_arrival_order;
        Alcotest.test_case "multicore sleep completes" `Quick test_multicore_sleep_completes;
      ] );
    ( "chaos",
      [
        Alcotest.test_case "zero-fault wrap is bit-identical" `Quick
          test_chaos_zero_fault_bit_identical;
        Alcotest.test_case "trace wrap is bit-identical" `Quick test_trace_wrap_bit_identical;
        Alcotest.test_case "trace records crash and timeout" `Quick
          test_trace_crash_and_timeout_notes;
        Alcotest.test_case "delays preserve collective values" `Quick
          test_chaos_delays_value_identical;
        Alcotest.test_case "same seed replays exactly" `Quick test_chaos_delays_are_deterministic;
        Alcotest.test_case "stragglers slow but preserve" `Quick
          test_chaos_straggler_slows_but_preserves;
        Alcotest.test_case "spec validation" `Quick test_chaos_spec_validated;
        Alcotest.test_case "scheduled crash counted" `Quick test_chaos_crash_counts_faults;
        Alcotest.test_case "time-scheduled crash" `Quick test_chaos_crashes_at_time;
        Alcotest.test_case "crash time validated" `Quick test_chaos_crashes_at_validation;
        Alcotest.test_case "property: chaos value identity" `Slow test_prop_chaos_value_identity;
        Alcotest.test_case "mixed sends replay pinned stats" `Quick test_chaos_mixed_sends_pinned;
      ] );
  ]

(* --- bulk slice tier ------------------------------------------------------------ *)

let slice_of_list = C.slice_of_list
let slice_to_list = C.slice_to_list

let test_slice_p2p_roundtrip () =
  List.iter
    (fun n ->
      let payload = List.init n (fun i -> float_of_int i *. 0.5) in
      let got = ref [] in
      let stats =
        run_world ~procs:2 (fun c ->
            if Comm.rank c = 0 then Comm.send_slice c ~dest:1 (slice_of_list payload)
            else got := slice_to_list (Comm.recv_slice c ~src:0 ()))
      in
      Alcotest.(check (list (float 0.0))) (Printf.sprintf "n=%d" n) payload !got;
      Alcotest.(check int) "one message" 1 stats.Sim.total_msgs;
      Alcotest.(check int) "8 bytes per element" (8 * n) stats.Sim.total_bytes)
    [ 0; 1; 13; 1024 ]

let test_slice_fifo_with_boxed () =
  (* slice and ordinary traffic on the SAME tagged channel keep their
     relative order *)
  let seen = ref [] in
  let _ =
    run_world ~procs:2 (fun c ->
        if Comm.rank c = 0 then begin
          Comm.send c ~dest:1 ~tag:7 "first";
          Comm.send_slice c ~dest:1 ~tag:7 (slice_of_list [ 2.0 ]);
          Comm.send c ~dest:1 ~tag:7 "third"
        end
        else begin
          let a : string = Comm.recv c ~src:0 ~tag:7 () in
          let b = Comm.recv_slice c ~src:0 ~tag:7 () in
          let d : string = Comm.recv c ~src:0 ~tag:7 () in
          seen := [ a; string_of_float (Bigarray.Array1.get b 0); d ]
        end)
  in
  Alcotest.(check (list string)) "order" [ "first"; "2."; "third" ] !seen

let test_slice_collectives_sim () = C.rooted_collectives_equal_sim sim

(* the same battery through the multicore engine's zero-copy path *)
let test_slice_collectives_multicore () = C.rooted_collectives_equal_sim (Backend.multicore ())

let test_slice_chaos_coherent () =
  (* the chaos wrapper holds/releases bulk sends like ordinary sends:
     values survive perturbation, and the zero-fault wrap is identity *)
  let battery = C.rooted_collectives in
  let bare, _ = Spmd.run sim ~procs:4 battery in
  List.iter
    (fun seed ->
      let spec = Chaos.delays ~seed ~prob:0.5 ~max_hold:3 () in
      let perturbed, _ = Spmd.run sim ~procs:4 ~chaos:spec battery in
      Alcotest.(check bool) (Printf.sprintf "seed=%d" seed) true (perturbed = bare))
    [ 1; 7; 42 ]

(* --- the procs stream protocol ----------------------------------------------- *)

let test_wire_explorer () =
  List.iter
    (fun cfg ->
      let r = Wire_explorer.explore cfg in
      Printf.printf "%s: %d states, %d transitions, %d failed runs, %.2f s\n%!" cfg.Wire_explorer.name
        r.states r.transitions r.failed_runs r.seconds;
      Option.iter (fun v -> Alcotest.failf "%s: %s" cfg.name v) r.violation)
    Wire_explorer.bound

(* Every byte [w] has to write, as the socket would take it whole. *)
let wire_out w =
  let b = Buffer.create 64 in
  let rec go () =
    match Wire.next w with
    | None -> Buffer.contents b
    | Some (bytes, off, len) ->
        Buffer.add_subbytes b bytes off len;
        Wire.advance w len;
        go ()
  in
  go ()

(* [s] arriving at [w] in the given pieces (their lengths), each read
   where [Wire.read_into] says; the events, in order, and every buffer a
   read went to. *)
let wire_in w s pieces =
  let events = ref [] and buffers = ref [] and pos = ref 0 in
  List.iter
    (fun piece ->
      let stop = !pos + piece in
      while !pos < stop do
        let b, off, len = Wire.read_into w in
        buffers := b :: !buffers;
        let m = min len (stop - !pos) in
        Bytes.blit_string s !pos b off m;
        pos := !pos + m;
        events := !events @ Wire.filled w m
      done)
    pieces;
  (!events, List.rev !buffers)

let wire_pair ?(run = 1) () =
  let a = Wire.create ~chunk:Wire.chunk ~self:0 ~peer:1 and b = Wire.create ~chunk:Wire.chunk ~self:1 ~peer:0 in
  let ring = { Wire.r_base = 0; r_cap = 100_000; r_head = 0; r_tail = 0 } in
  Wire.start a ~run ~ring:(Some ring);
  Wire.start b ~run ~ring:None;
  (a, b, ring)

(* Lengths that cut [s] at the given positions. *)
let cut_at s cuts =
  let cuts = List.sort_uniq compare (List.filter (fun c -> c > 0 && c < String.length s) cuts) in
  let rec go last = function c :: rest -> (c - last) :: go c rest | [] -> [ String.length s - last ] in
  go 0 cuts

let test_wire_round_trip () =
  let n = Wire.chunk / 8 in
  List.iter
    (fun how ->
      (* [s] in pieces; [starts] are the offsets of its frames *)
      let pieces starts s =
        match how with
        | "in one piece" -> [ String.length s ]
        | "byte by byte" -> List.init (String.length s) (fun _ -> 1)
        | _ -> cut_at s (List.concat_map (fun f -> [ f; f + Wire.header_len ]) starts)
      in
      let a, b, ring = wire_pair () in
      let out = Buffer.create 64 and starts = ref [] in
      let frame queue =
        starts := Buffer.length out :: !starts;
        let r = queue () in
        Buffer.add_string out (wire_out a);
        r
      in
      frame (fun () -> Wire.send a ~tag:3 (Bytes.of_string "hello"));
      let slice kind tag () =
        let off, span = Option.get (Wire.reserve_slice a n) in
        Wire.send_slice a ~kind ~tag ~len:n ~off ~span;
        (off, span)
      in
      let f = frame (slice Wire.Floats 4) in
      let i = frame (slice Wire.Ints 5) in
      frame (fun () -> Wire.goodbye a);
      let s = Buffer.contents out in
      (match fst (wire_in b s (pieces !starts s)) with
      | [ Wire.Message { tag = 3; payload }; Wire.Slice s1; Wire.Slice s2 ] ->
          Alcotest.(check string) (how ^ ": payload") "hello" (Bytes.to_string payload);
          Alcotest.(check (list int)) (how ^ ": floats") [ 4; fst f; n; snd f ] [ s1.tag; s1.off; s1.len; s1.span ];
          Alcotest.(check (list int)) (how ^ ": ints") [ 5; fst i; n; snd i ] [ s2.tag; s2.off; s2.len; s2.span ];
          Alcotest.(check bool) (how ^ ": kinds") true (s1.kind = Wire.Floats && s2.kind = Wire.Ints)
      | evs -> Alcotest.failf "%s: %d events" how (List.length evs));
      Alcotest.(check bool) (how ^ ": goodbye") true (Wire.finished b);
      (* the credit b owes for both slices comes back ahead of its goodbye *)
      Wire.goodbye b;
      let back = wire_out b in
      ignore (wire_in a back (pieces [ 0; Wire.header_len ] back));
      Alcotest.(check int) (how ^ ": credit returned") (snd f + snd i) ring.Wire.r_tail;
      Alcotest.(check bool) (how ^ ": goodbye back") true (Wire.finished a))
    [ "in one piece"; "byte by byte"; "cut at each header boundary" ]

let test_wire_large_payload () =
  let a, b, _ = wire_pair () in
  let payload = Bytes.init (Wire.chunk + 100) (fun i -> Char.chr (i land 255)) in
  Wire.send a ~tag:7 payload;
  (match Wire.next a with
  | Some (_, 0, len) ->
      Alcotest.(check int) "the header goes alone" Wire.header_len len;
      Wire.advance a len
  | _ -> Alcotest.fail "no header");
  (match Wire.next a with
  | Some (p, 0, len) ->
      Alcotest.(check bool) "the payload is written as it stands" true (p == payload && len = Bytes.length p);
      Wire.advance a len
  | _ -> Alcotest.fail "no payload");
  Wire.send a ~tag:7 payload;
  let s = wire_out a in
  let events, buffers = wire_in b s [ Wire.header_len + 10; String.length s - Wire.header_len - 10 ] in
  match events with
  | [ Wire.Message { tag = 7; payload = got } ] ->
      Alcotest.(check bool) "bytes" true (Bytes.equal got payload);
      Alcotest.(check bool) "the rest was read straight into it" true (List.memq got buffers)
  | _ -> Alcotest.fail "one message expected"

let test_wire_tail_bound () =
  let a, _, _ = wire_pair () in
  let sizes = [ 0; 1; 100; Wire.chunk - 1; Wire.chunk; 7; Wire.chunk + 1; 3 ] in
  List.iteri (fun i n -> Wire.send a ~tag:i (Bytes.make n 'x')) sizes;
  let s = wire_out a in
  List.iter
    (fun piece ->
      let _, b, _ = wire_pair () in
      let count = (String.length s + piece - 1) / piece in
      let events, buffers = wire_in b s (List.init count (fun k -> min piece (String.length s - (k * piece)))) in
      Alcotest.(check (list int)) "every message" sizes
        (List.map (function Wire.Message { payload; _ } -> Bytes.length payload | _ -> -1) events);
      List.iter
        (fun buf ->
          let n = Bytes.length buf in
          Alcotest.(check bool) "a read lands in the tail or a large payload" true
            (n <= Wire.header_len + Wire.chunk || n = Wire.chunk + 1))
        buffers)
    [ 1; 4096; Wire.chunk; 1 lsl 20 ]

let test_wire_goodbye_last () =
  let a, b, _ = wire_pair () in
  let off, span = Option.get (Wire.reserve_slice a (Wire.chunk / 8)) in
  Wire.send_slice a ~kind:Wire.Ints ~tag:1 ~len:(Wire.chunk / 8) ~off ~span;
  let s = wire_out a in
  ignore (wire_in b s [ String.length s ]);
  Wire.goodbye b;
  let back = wire_out b in
  Alcotest.(check int) "a credit, then the goodbye" (2 * Wire.header_len) (String.length back);
  Alcotest.(check (list int)) "kinds" [ 4; 1 ] [ Char.code back.[0]; Char.code back.[Wire.header_len] ];
  (* an arena frame read after the goodbye owes credit that never goes out *)
  let off, span = Option.get (Wire.reserve_slice a (Wire.chunk / 8)) in
  Wire.send_slice a ~kind:Wire.Ints ~tag:1 ~len:(Wire.chunk / 8) ~off ~span;
  let s = wire_out a in
  ignore (wire_in b s [ String.length s ]);
  Alcotest.(check bool) "nothing follows the goodbye" true (Wire.next b = None);
  Alcotest.check_raises "no frame is queued after it"
    (Invalid_argument "Wire: p1 queued a frame to p0 after its goodbye") (fun () ->
      Wire.send b ~tag:0 Bytes.empty)

let test_wire_stale_credit () =
  let a, b, _ = wire_pair ~run:1 () in
  let off, span = Option.get (Wire.reserve_slice a (Wire.chunk / 8)) in
  Wire.send_slice a ~kind:Wire.Floats ~tag:1 ~len:(Wire.chunk / 8) ~off ~span;
  let s = wire_out a in
  ignore (wire_in b s [ String.length s ]);
  let credit = wire_out b in
  Wire.start a ~run:2 ~ring:None;
  Alcotest.check_raises "a credit of run 1 in run 2"
    (Failure "Wire: p0 got a credit frame of run 1 from p1 in run 2") (fun () ->
      ignore (wire_in a credit [ String.length credit ]))

let test_wire_reserve_wrap () =
  let r = { Wire.r_base = 100; r_cap = 10; r_head = 0; r_tail = 0 } in
  let opt = Alcotest.(option (pair int int)) in
  Alcotest.check opt "first block" (Some (100, 4)) (Wire.reserve r 4);
  Alcotest.check opt "second block" (Some (104, 4)) (Wire.reserve r 4);
  Alcotest.check opt "no room for a third before any credit" None (Wire.reserve r 4);
  r.r_tail <- 4;
  Alcotest.check opt "the third wraps, charged the 2 it skipped" (Some (100, 6)) (Wire.reserve r 4);
  Alcotest.(check int) "in flight" 10 (r.r_head - r.r_tail);
  Alcotest.check opt "full" None (Wire.reserve r 1);
  r.r_tail <- r.r_tail + 4 + 6;
  Alcotest.check opt "after both credits, from where it left off" (Some (104, 1)) (Wire.reserve r 1)

let wire_tests =
  [
    Alcotest.test_case "every kind round-trips" `Quick test_wire_round_trip;
    Alcotest.test_case "a payload over a chunk takes its own buffer" `Quick test_wire_large_payload;
    Alcotest.test_case "the tail never exceeds a header and a chunk" `Quick test_wire_tail_bound;
    Alcotest.test_case "credit goes ahead of the goodbye, nothing after" `Quick test_wire_goodbye_last;
    Alcotest.test_case "a credit of another run raises" `Quick test_wire_stale_credit;
    Alcotest.test_case "reserve charges a wrap to the block" `Quick test_wire_reserve_wrap;
    Alcotest.test_case "explorer finds no violation" `Quick test_wire_explorer;
  ]

let suite =
  suite
  @ [
      ( "slice",
        [
          Alcotest.test_case "p2p roundtrip + pricing" `Quick test_slice_p2p_roundtrip;
          Alcotest.test_case "fifo with boxed traffic" `Quick test_slice_fifo_with_boxed;
          Alcotest.test_case "collectives (sim)" `Quick test_slice_collectives_sim;
          Alcotest.test_case "collectives (multicore)" `Quick test_slice_collectives_multicore;
          Alcotest.test_case "chaos coherence" `Quick test_slice_chaos_coherent;
        ] );
      C.contract_group sim;
      ("wire", wire_tests);
    ]
  @ C.chaos_groups sim

let () = Alcotest.run "machine" suite
