(* Tests for the multicore execution engine: the mailbox fabric (tag
   discipline, per-(source, tag) FIFO, doorbell sleep/wake), quiescence
   deadlock detection, rank multiplexing, and sim-vs-multicore engine
   equivalence of the Comm collectives and the ported algorithms. *)

open Machine
module Spmd = Scl_sim.Spmd

module C = Engine_contract

(* --- fabric basics ------------------------------------------------------ *)

let test_single_rank () =
  let stats = C.single_rank (Backend.multicore ()) in
  Alcotest.(check int) "no messages" 0 stats.Multicore.total_msgs

let test_ping_pong () =
  let stats = C.ping_pong (Backend.multicore ~domains:2 ()) in
  Alcotest.(check int) "two messages" 2 stats.Multicore.total_msgs

let test_tag_discipline_out_of_order () = C.out_of_order_tags (Backend.multicore ~domains:2 ())
let test_self_send_rejected () = C.self_send_rejected (Backend.multicore ())

(* Zero-copy: a large array must arrive as the same physical object. *)
let test_zero_copy_identity () =
  let shared = Array.init 1024 Fun.id in
  let v, _ =
    Multicore.run_collect ~procs:2 ~domains:2 (fun eng ->
        if eng.Engine.rank = 0 then begin
          eng.Engine.send ~dest:1 ~tag:0 shared;
          None
        end
        else begin
          let (a : int array) = eng.Engine.recv ~src:0 ~tag:0 () in
          Some (a == shared)
        end)
  in
  Alcotest.(check bool) "physically equal" true v

(* --- deadlock detection by quiescence ----------------------------------- *)

let test_deadlock_mutual_recv () = C.mutual_recv_deadlock (Backend.multicore ~domains:2 ())

(* Deadlock where a message exists but can never match (wrong tag): the
   in-flight counter must not keep the detector from firing. *)
let test_deadlock_unmatched_tag () =
  match
    Multicore.run_each ~procs:2 ~domains:2 (fun _ eng ->
        if eng.Engine.rank = 0 then begin
          eng.Engine.send ~dest:1 ~tag:7 ();
          let (_ : unit) = eng.Engine.recv ~src:1 ~tag:8 () in
          ()
        end
        else
          let (_ : unit) = eng.Engine.recv ~src:0 ~tag:9 () in
          ())
  with
  | _ -> Alcotest.fail "expected deadlock"
  | exception Fault.Deadlock _ -> ()

(* One rank exits while another still waits for it: quiescence must also be
   detected when the only potential sender is gone. *)
let test_deadlock_sender_finished () =
  ignore (C.sender_finished_deadlock (Backend.multicore ~domains:2 ()))

let test_undelivered_message () = C.undelivered_message (Backend.multicore ~domains:2 ())

let test_rank_exception_propagates () =
  C.rank_exception_propagates (Backend.multicore ~domains:2 ())

(* --- seeded multi-domain stress ------------------------------------------ *)

(* The battery's per-(source, tag) FIFO case, each sender on its own
   domain. *)
let fabric_stress seed () = C.fifo_under_interleaving ~seed (Backend.multicore ~domains:4 ())

(* 1000 rounds of the dissemination barrier over the fabric with a shared
   counter: after round r every rank must observe all p increments of round
   r before any rank starts round r+1 — the sense-reversal property. *)
let test_barrier_rounds () =
  let p = 4 in
  let rounds = 1000 in
  let counter = Atomic.make 0 in
  let v, _ =
    Spmd.run (Backend.multicore ~domains:4 ()) ~procs:p (fun comm ->
        let ok = ref true in
        for r = 1 to rounds do
          Atomic.incr counter;
          Comm.barrier comm;
          if Atomic.get counter < r * p then ok := false;
          Comm.barrier comm
        done;
        if Comm.rank comm = 0 then Some !ok else None)
  in
  Alcotest.(check bool) "all increments visible each round" true v;
  Alcotest.(check int) "final count" (rounds * 4) (Atomic.get counter)

(* Ranks beyond the domain count are multiplexed: 8 ranks on 2 domains, with
   blocking traffic crossing domain and fiber boundaries. *)
let test_multiplexed_ranks () =
  let p = 8 in
  let v, stats =
    Spmd.run (Backend.multicore ~domains:2 ()) ~procs:p (fun comm ->
        let me = Comm.rank comm in
        let s = Comm.allreduce comm ( + ) me in
        let next = (me + 1) mod p in
        let prev = (me + p - 1) mod p in
        Comm.send comm ~dest:next me;
        let (from_prev : int) = Comm.recv comm ~src:prev () in
        if me = 0 then Some (s, from_prev) else None)
  in
  Alcotest.(check (pair int int)) "ring + allreduce over 2 domains" (28, 7) v;
  Alcotest.(check int) "two domains" 2 stats.Multicore.domains_used

(* --- both delivery paths ---------------------------------------------------- *)

(* A message to a rank on the sender's own domain goes straight into the
   receiver's pending box; one to another domain goes through its locked
   mailbox, the in-flight count and the doorbell.  Each case below runs on
   1 domain (every message same-domain) and on 2 (rank r on domain r mod
   2, so both paths), whatever the host's core count. *)

(* Ranks 0 and 2 share domain 0 on 1 domain and on 2.  Rank 2 sends to
   rank 0 and returns without yielding, so rank 0, resumed by that
   message, sends to a finished same-domain peer: the message waits in
   the peer's pending box for the end-of-run check. *)
let same_domain_finished_peer backend =
  let msg =
    C.expect_deadlock "same-domain finished peer" (fun () ->
        C.run backend ~procs:3 (fun eng ->
            match eng.Engine.rank with
            | 0 ->
                ignore (eng.Engine.recv ~src:2 ~tag:1 () : string);
                eng.Engine.send ~dest:2 ~tag:9 "late";
                Some ()
            | 2 ->
                eng.Engine.send ~dest:0 ~tag:1 "bye";
                None
            | _ -> None))
  in
  Alcotest.(check string) "undelivered reported"
    "processor 2 finished with 1 undelivered message(s); first from p0 tag 9" msg

(* Doorbells ring only across domains: a 2-rank ping-pong rings none on
   1 domain, and on 2 exactly one per message (each goes to a live rank
   on the other domain). *)
let doorbells_only_across_domains backend =
  let (Backend.Multicore { domains }) = backend in
  let rounds = 100 in
  Obs.enable ();
  Obs.reset ();
  let _ =
    Multicore.run_each ?domains ~procs:2 (fun _ eng ->
        for i = 1 to rounds do
          if eng.Engine.rank = 0 then begin
            eng.Engine.send ~dest:1 ~tag:0 i;
            ignore (eng.Engine.recv ~src:1 ~tag:1 () : int)
          end
          else begin
            ignore (eng.Engine.recv ~src:0 ~tag:0 () : int);
            eng.Engine.send ~dest:0 ~tag:1 i
          end
        done)
  in
  let rings = Option.value ~default:0 (Obs.Metrics.counter_value "mc.rings") in
  Obs.disable ();
  if domains = Some 1 then Alcotest.(check int) "no doorbell on one domain" 0 rings
  else Alcotest.(check int) "one ring per message across domains" (2 * rounds) rings

let on_both_paths (name, case) =
  List.map
    (fun domains ->
      Alcotest.test_case
        (Printf.sprintf "%s, %d domain%s" name domains (if domains = 1 then "" else "s"))
        `Quick
        (fun () -> case (Backend.multicore ~domains ())))
    [ 1; 2 ]

let delivery_paths =
  List.concat_map on_both_paths
    [
      ("fifo, 4 ranks", fun b -> C.fifo_under_interleaving b);
      ("mutual recv", C.mutual_recv_deadlock);
      ("undelivered message", C.undelivered_message);
      ("sender finished", fun b -> ignore (C.sender_finished_deadlock b));
      ("crash is fail-stop", fun b -> ignore (C.crash_is_fail_stop b));
      ("same-domain finished peer", same_domain_finished_peer);
      ("doorbells", doorbells_only_across_domains);
    ]

(* --- engine equivalence: same program, identical values ------------------ *)

let equivalence only = C.oracle ~only Prop.Engine_oracle.equivalence (Backend.multicore ())
let test_engine_equivalence_collectives () = equivalence [ "collectives" ]
let test_engine_equivalence_hyperquicksort () = equivalence Prop.Engine_oracle.sorts
let test_engine_equivalence_cannon_summa () = equivalence Prop.Engine_oracle.matrix
let test_engine_equivalence_solvers () = equivalence Prop.Engine_oracle.solvers
let test_engine_equivalence_algorithms () = C.algorithms (Backend.multicore ())

let test_farm_on_multicore () = ignore (C.dynamic_farm (Backend.multicore ~domains:4 ()))

(* --- faults: timeouts, crashes, chaos on real domains --------------------- *)

let test_mc_reduce_root_sweep () = C.reduce_root_sweep (Backend.multicore ~domains:4 ())
let test_mc_recv_timeout_fires () = ignore (C.timeout_fires (Backend.multicore ~domains:2 ()))
let test_mc_recv_timeout_in_time () = ignore (C.in_time_delivery (Backend.multicore ~domains:2 ()))
let test_mc_crash_is_fail_stop () = ignore (C.crash_is_fail_stop (Backend.multicore ~domains:3 ()))
let faults ?seeds only = C.oracle ?seeds ~only Prop.Engine_oracle.faults (Backend.multicore ~domains:4 ())

let test_mc_chaos_delays_value_identical () =
  faults ~seeds:C.delay_seeds [ "chaos-delay" ];
  faults [ "chaos-straggler"; "zero-fault wrap" ]

let test_mc_farm_survives_worker_crash () = faults [ "farm crash" ]

let test_mc_chaos_stall_parks_fiber_not_domain () =
  (* Regression: chaos straggler stalls used to be [Unix.sleepf], which
     blocks the whole OS domain — on a shared domain every co-scheduled
     rank froze for the stall, not just the straggler.  Now the stall
     goes through [Engine.sleep] (a fiber-aware park).

     Both ranks share ONE domain.  Rank 1 is stalled 0.5 s at its first
     communication op; rank 0 concurrently times ten 10 ms sleeps of its
     own.  Through the old blocking path rank 0's first sleep yields to
     rank 1, whose stall then freezes the domain, so rank 0 measures
     >= 0.5 s.  With the fiber-aware park rank 0 keeps ticking and
     measures ~0.1 s. *)
  let chaos = { Chaos.none with Chaos.stalls = [ (1, 0.5) ] } in
  let elapsed, _ =
    Spmd.run (Backend.multicore ~domains:1 ()) ~procs:2 ~chaos (fun comm ->
        if Comm.rank comm = 0 then begin
          let t0 = Comm.time comm in
          for _ = 1 to 10 do
            Comm.sleep comm 0.01
          done;
          let dt = Comm.time comm -. t0 in
          Comm.send comm ~dest:1 "release";
          Some dt
        end
        else begin
          let (_ : string) = Comm.recv comm ~src:0 () in
          None
        end)
  in
  Alcotest.(check bool)
    (Printf.sprintf "straggler stall must not freeze its domain-mates (rank 0 took %.3fs)" elapsed)
    true (elapsed < 0.35)

let suite =
  [
    ( "fabric",
      [
        Alcotest.test_case "single rank" `Quick test_single_rank;
        Alcotest.test_case "ping pong" `Quick test_ping_pong;
        Alcotest.test_case "tag discipline out of order" `Quick test_tag_discipline_out_of_order;
        Alcotest.test_case "self send rejected" `Quick test_self_send_rejected;
        Alcotest.test_case "zero copy identity" `Quick test_zero_copy_identity;
      ] );
    ( "deadlock",
      [
        Alcotest.test_case "mutual recv" `Quick test_deadlock_mutual_recv;
        Alcotest.test_case "unmatched tag" `Quick test_deadlock_unmatched_tag;
        Alcotest.test_case "sender finished" `Quick test_deadlock_sender_finished;
        Alcotest.test_case "undelivered message" `Quick test_undelivered_message;
        Alcotest.test_case "rank exception propagates" `Quick test_rank_exception_propagates;
      ] );
    ( "stress",
      [
        Alcotest.test_case "seeded fabric stress (42)" `Slow (fabric_stress 42);
        Alcotest.test_case "seeded fabric stress (1337)" `Slow (fabric_stress 1337);
        Alcotest.test_case "barrier 1000 rounds" `Slow test_barrier_rounds;
        Alcotest.test_case "8 ranks on 2 domains" `Quick test_multiplexed_ranks;
      ] );
    ( "engine-equivalence",
      [
        Alcotest.test_case "collectives p=1/2/4" `Quick test_engine_equivalence_collectives;
        Alcotest.test_case "hyperquicksort p=1/2/4" `Quick test_engine_equivalence_hyperquicksort;
        Alcotest.test_case "cannon and summa" `Quick test_engine_equivalence_cannon_summa;
        Alcotest.test_case "jacobi/heat2d/cg" `Slow test_engine_equivalence_solvers;
        Alcotest.test_case "dynamic farm (recv_any)" `Quick test_farm_on_multicore;
        Alcotest.test_case "ten algorithms equal sim" `Quick test_engine_equivalence_algorithms;
      ] );
    ( "faults",
      [
        Alcotest.test_case "reduce root sweep" `Quick test_mc_reduce_root_sweep;
        Alcotest.test_case "recv timeout fires" `Quick test_mc_recv_timeout_fires;
        Alcotest.test_case "in-time delivery beats deadline" `Quick test_mc_recv_timeout_in_time;
        Alcotest.test_case "crash is fail-stop" `Quick test_mc_crash_is_fail_stop;
        Alcotest.test_case "chaos delays preserve values" `Quick
          test_mc_chaos_delays_value_identical;
        Alcotest.test_case "farm survives worker crash" `Quick test_mc_farm_survives_worker_crash;
        Alcotest.test_case "chaos stall parks fiber not domain" `Quick
          test_mc_chaos_stall_parks_fiber_not_domain;
      ] );
    ("delivery", delivery_paths);
    C.contract_group (Backend.multicore ());
  ]
  @ C.chaos_groups (Backend.multicore ~domains:2 ())

(* --- allocation-free hot path ------------------------------------------------- *)

let test_slice_zero_copy_roundtrip () =
  (* a received slice aliases the sender's storage: zero copy, same words *)
  let ok, _ =
    Multicore.run_collect ~procs:2 ~domains:1 (fun eng ->
        if eng.Engine.rank = 0 then begin
          let s = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 64 in
          for i = 0 to 63 do
            s.{i} <- float_of_int i *. 2.0
          done;
          eng.Engine.send_slice ~dest:1 ~tag:1 s;
          let (echoed : bool) = eng.Engine.recv ~src:1 ~tag:2 () in
          Some echoed
        end
        else begin
          let s = eng.Engine.recv_slice ~src:0 ~tag:1 () in
          let good = ref (Bigarray.Array1.dim s = 64) in
          for i = 0 to 63 do
            if s.{i} <> float_of_int i *. 2.0 then good := false
          done;
          eng.Engine.send ~dest:0 ~tag:2 !good;
          None
        end)
  in
  Alcotest.(check bool) "slice contents survive zero-copy handoff" true ok

let test_send_recv_allocation_free () =
  (* The claim measured through [Gc.minor_words] inside the rank's own
     fiber: a seeded 10k-message ping-pong whose steady-state receives are
     satisfied from the pending ring (domains:1 interleaves the two fibers
     on one domain, so a sent message is already in the peer's pending
     ring when the peer looks: a same-domain send pushes it there).  The
     payload is a preallocated immediate (int), so any
     minor-heap growth would come from the fabric itself — packet boxing,
     closure capture, option wrapping.  The measurement brackets only the
     loop; a slack of a few hundred words absorbs the [Gc.minor_words]
     call's own float boxing and effect-handler warmup, while a per-message
     allocation of even one word would show up as >= 10k. *)
  let batch = 1_000 and batches = 10 in
  let rounds = batch * batches in
  let delta, _ =
    Multicore.run_collect ~procs:2 ~domains:1 (fun eng ->
        if eng.Engine.rank = 0 then begin
          (* Warm up with one full batch: grows both mailbox rings to their
             steady-state capacity and exercises the effect handler once, so
             the measured batches run entirely on recycled storage.  A batched
             shape (send [batch], then recv [batch]) parks each fiber at most
             once per batch instead of once per message — parking itself
             allocates a continuation, which is scheduler bookkeeping, not a
             per-message cost. *)
          for _ = 1 to batch do
            eng.Engine.send ~dest:1 ~tag:3 7
          done;
          for _ = 1 to batch do
            ignore (eng.Engine.recv ~src:1 ~tag:4 () : int)
          done;
          let w0 = Gc.minor_words () in
          for _ = 1 to batches do
            for i = 1 to batch do
              eng.Engine.send ~dest:1 ~tag:3 i
            done;
            for _ = 1 to batch do
              ignore (eng.Engine.recv ~src:1 ~tag:4 () : int)
            done
          done;
          let w1 = Gc.minor_words () in
          Some (int_of_float (w1 -. w0))
        end
        else begin
          for _ = 1 to batches + 1 do
            for _ = 1 to batch do
              ignore (eng.Engine.recv ~src:0 ~tag:3 () : int)
            done;
            for i = 1 to batch do
              eng.Engine.send ~dest:0 ~tag:4 i
            done
          done;
          None
        end)
  in
  Alcotest.(check bool)
    (Printf.sprintf "minor words for %d messages: %d" rounds delta)
    true (delta < 2_000)

let test_minor_words_counter_surfaced () =
  (* the [mc.minor_words] obs counter reports per-domain allocation *)
  Obs.enable ();
  Obs.reset ();
  let _ = Multicore.run_each ~procs:2 ~domains:1 (fun _ eng -> ignore (Comm.world eng)) in
  let c = Obs.Metrics.counter_value "mc.minor_words" in
  Obs.disable ();
  Alcotest.(check bool) "counter present and positive" true
    (match c with Some v -> v > 0 | None -> false)

let test_flat_cg_allocation_per_iteration () =
  (* The flat tier's claim: CG's loops load and store unboxed floats, so
     what a solve allocates per iteration is the fabric's and the
     allreduce's constant, not a box per element.  Two sizes, one bound:
     a per-element box would read ~34 words per element (34k per
     iteration at n = 1000). [mc.minor_words] covers the whole run on the
     one domain, set-up included. *)
  let per_iteration n =
    let rng = Random.State.make [| n |] in
    let b = Array.init n (fun _ -> Random.State.float rng 2.0 -. 1.0) in
    Obs.enable ();
    Obs.reset ();
    let r, _ = Algorithms.Cg.solve_flat (Backend.multicore ~domains:1 ()) ~tol:1e-8 ~procs:2 b in
    let words = Obs.Metrics.counter_value "mc.minor_words" in
    Obs.disable ();
    match words with
    | Some w when r.Algorithms.Cg.iterations > 0 -> w / r.Algorithms.Cg.iterations
    | _ -> Alcotest.fail "no mc.minor_words or no iteration"
  in
  List.iter
    (fun n ->
      let w = per_iteration n in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d: %d minor words per iteration" n w)
        true (w < 1_000))
    [ 1_000; 4_000 ]

let suite =
  suite
  @ [
      ( "alloc-free",
        [
          Alcotest.test_case "slice zero-copy roundtrip" `Quick test_slice_zero_copy_roundtrip;
          Alcotest.test_case "10k ping-pong allocates nothing" `Quick
            test_send_recv_allocation_free;
          Alcotest.test_case "mc.minor_words surfaced" `Quick test_minor_words_counter_surfaced;
          Alcotest.test_case "flat CG allocates O(1) per iteration" `Quick
            test_flat_cg_allocation_per_iteration;
        ] );
    ]

(* --- domain hygiene --------------------------------------------------------- *)

let test_failed_spawn_releases_domains () =
  (* the runtime's domain table is finite (128 slots, the caller's
     included): asking for more domains than it holds must fail, and the
     domains spawned before the failure must be released, or every later
     run fails for want of a slot *)
  (match Multicore.run_each ~domains:129 ~procs:129 (fun _ _ -> ()) with
  | _ -> Alcotest.fail "expected a refused spawn"
  | exception Failure _ -> ());
  let v, _ = Multicore.run_collect ~domains:2 ~procs:2 (fun eng -> Some eng.Engine.size) in
  Alcotest.(check int) "a later run still spawns" 2 v;
  (* [run_flat]'s domains also wait at its lay-out barriers, which a
     refused spawn must open too *)
  let input = Array.init 1_000 Fun.id in
  (match
     Multicore.run_flat ~domains:129 ~procs:129 ~kind:Scl.Flat.int ~input (fun eng ->
         Option.map (fun s -> [| s |]) (eng.Engine.input Scl.Flat.int))
   with
  | _ -> Alcotest.fail "expected a refused spawn (run_flat)"
  | exception Failure _ -> ());
  let v, _ =
    Multicore.run_flat ~domains:2 ~procs:2 ~kind:Scl.Flat.int ~input (fun eng ->
        Option.map (fun s -> [| s |]) (eng.Engine.input Scl.Flat.int))
  in
  Alcotest.(check bool) "a later run_flat still spawns" true (v = input)

(* Last: it fills the domain table. *)
let suite =
  suite
  @ [
      ( "domains",
        [
          Alcotest.test_case "failed spawn releases spawned domains" `Quick
            test_failed_spawn_releases_domains;
        ] );
    ]

let () = Alcotest.run "multicore" suite
