(* Tests for the multi-process execution engine: the socket fabric (frame
   protocol, per-(source, tag) FIFO, marshal + raw-slice tiers), the
   shared-memory arena for bulk slices (ring exhaustion and fallback,
   both-way pushes, a rank's own nested run), real
   crash detection (EOF without goodbye -> Fault.Crashed), the
   marshalable-payload discipline, engine equivalence of the Comm
   collectives and hyperquicksort against the simulator, the
   crash-tolerant farm driven by real process deaths, and the rank pool
   (retired after a failed run, fd hygiene, the fork-time view).

   This suite lives in its own executable on purpose: [Procs] forks, and
   forking an OCaml 5 process is only safe while no other domain has
   ever existed — so nothing here spawns domains or pools, except the
   pool-after-domain, run-contract and fork-after-domain cases, which
   run last for that reason (the one-domain multicore case just before
   them spawns none). *)

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

(* A named FIFO for ranks to block on: pooled ranks inherit no
   descriptor opened after the pool was forked, so they open it by name
   ([O_RDWR] opens a FIFO on Linux without waiting for another end). *)
let with_fifo f =
  let path = Filename.temp_file "scl-fifo" "" in
  Sys.remove path;
  Unix.mkfifo path 0o600;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let with_open fifo f =
  let fd = Unix.openfile fifo [ O_RDWR ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> f fd)

(* A frame far larger than the socket buffer must be wholly in the
   kernel when [send] returns: rank 0 then leaves the engine for good
   (blocked on a FIFO, 10 s guard), and rank 1 must still receive all of
   it. *)
let test_bulk_send_completes_outside_engine () =
  let n = 1 lsl 19 (* 4 MB marshalled *) in
  with_fifo (fun fifo ->
      ignore
        (Procs.run_each ~procs:2 (fun _ eng ->
             with_open fifo (fun fd ->
                 if eng.Engine.rank = 0 then begin
                   eng.Engine.send ~dest:1 ~tag:0 (Array.init n Fun.id);
                   match Unix.select [ fd ] [] [] 10.0 with
                   | [], _, _ -> failwith "bulk frame still undelivered 10 s after send returned"
                   | _ -> ()
                 end
                 else begin
                   let (a : int array) = eng.Engine.recv ~src:0 ~tag:0 () in
                   if a <> Array.init n Fun.id then failwith "bulk frame corrupted";
                   ignore (Unix.write_substring fd "!" 0 1)
                 end))))

(* --- marshalable-payload discipline -------------------------------------- *)

let test_unserializable_closure_rejected () =
  (* in-process engines happily ship closures; here the send boundary
     must refuse with the Fault-taxonomy error, not a raw Marshal raise
     somewhere mid-protocol *)
  match
    Procs.run_each ~procs:2 (fun _ eng ->
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

(* A result far larger than the verdict socket's buffer comes home exactly:
   the parent reads each rank's record and then its raw result bytes. *)
let test_bulk_result_round_trips () =
  let n = 1 lsl 21 (* 16 MB *) in
  let entry i = (i * 40_503) lxor (i lsl 17) in
  let v, _ =
    Procs.run_collect ~procs:2 (fun eng ->
        if eng.Engine.rank = 0 then Some (Array.init n entry) else None)
  in
  Alcotest.(check int) "length" n (Array.length v);
  Alcotest.(check bool) "every element" true (v = Array.init n entry)

(* A result that cannot be marshalled is refused in the child, beside a
   rank whose result crosses fine. *)
let test_unserializable_result_beside_bulk () =
  match
    Procs.run_collect ~procs:2 (fun eng ->
        if eng.Engine.rank = 0 then Some (Either.Left (fun x -> x + 1))
        else Some (Either.Right (Array.make (1 lsl 20) 7)))
  with
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

let wchar pid =
  let ic = open_in (Printf.sprintf "/proc/%d/io" pid) in
  let rec go () =
    match input_line ic with
    | l when String.starts_with ~prefix:"wchar:" l -> Scanf.sscanf l "wchar: %d" Fun.id
    | _ -> go ()
    | exception End_of_file -> 0
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* The producing rank is SIGKILLed in the middle of handing its flat
   result over: after its verdict announced the result, before the
   result is staged.  A watcher it forks stops this process (the
   reader), and only then lets the rank return, through a pipe; it waits
   until the rank has written its goodbye to rank 0 and its whole
   verdict (17 bytes, an 8-byte length and at least a [Marshal]
   header's 20) and so waits to be told its result is wanted, kills it,
   and wakes this process.  A warm-up run left a whole result
   of the same length in the staging file: the run must raise
   [Fault.Crashed 1], never hang and never return that stale result, and
   the next run forks a new pool. *)
let test_kill_mid_result () =
  let reader = Unix.getpid () in
  let n = 1 lsl 16 in
  let run ~kill =
    Procs.run_flat ~procs:2 ~kind:Scl.Flat.int (fun eng ->
        if eng.Engine.rank = 0 then None
        else begin
          (if kill then
             let child = Unix.getpid () in
             let base = wchar child in
             let stopped, told = Unix.pipe () in
             match Unix.fork () with
             | 0 ->
                 Fun.protect
                   ~finally:(fun () -> Unix.kill reader Sys.sigcont)
                   (fun () ->
                     Unix.kill reader Sys.sigstop;
                     ignore (Unix.write_substring told "!" 0 1);
                     let deadline = Unix.gettimeofday () +. 5.0 in
                     while wchar child < base + 45 && Unix.gettimeofday () < deadline do
                       Unix.sleepf 0.005
                     done;
                     Unix.kill child Sys.sigkill);
                 Unix._exit 0
             | _ ->
                 ignore (Unix.read stopped (Bytes.create 1) 0 1);
                 Unix.close stopped;
                 Unix.close told);
          Some [| Scl.Flat.make Scl.Flat.int n 1 |]
        end)
  in
  Alcotest.(check bool) "the warm-up stages rank 1's result" true (fst (run ~kill:false) = Array.make n 1);
  (match run ~kill:true with
  | v, _ -> Alcotest.failf "expected Fault.Crashed, got %d elements" (Array.length v)
  | exception Fault.Crashed r -> Alcotest.(check int) "the producing rank" 1 r);
  Alcotest.(check int) "a new pool" 2 (Procs.run_each ~procs:2 (fun _ _ -> ())).Procs.forked

let test_chaos_crash_is_fail_stop () =
  (* Chaos's Fault.Crashed self-raise fail-stops the real process: no
     goodbye, sockets slammed shut, run completes without it *)
  let stats = C.crash_is_fail_stop Backend.procs in
  Alcotest.(check (list int)) "crash recorded" [ 1 ] stats.Procs.crashed

(* --- engine equivalence: same program, identical values ------------------ *)

let equivalence only = C.oracle ~only Prop.Engine_oracle.equivalence Backend.procs
let test_engine_equivalence_collectives () = equivalence [ "collectives" ]
let test_collective_battery_with_slices () = C.rooted_collectives_equal_sim Backend.procs
let test_reduce_root_sweep () = C.reduce_root_sweep Backend.procs
let test_engine_equivalence_hyperquicksort () = equivalence Prop.Engine_oracle.sorts
let test_engine_equivalence_cannon_summa () = equivalence Prop.Engine_oracle.matrix
let test_engine_equivalence_solvers () = equivalence Prop.Engine_oracle.solvers
let test_engine_equivalence_algorithms () = C.algorithms Backend.procs

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

(* --- the shared-memory arena ---------------------------------------------- *)

let int_block n k : Scl.Flat.int1 = Scl.Flat.make Scl.Flat.int n k

let all_equal (s : Scl.Flat.int1) n k =
  Scl.Flat.length s = n
  &&
  let ok = ref true in
  for i = 0 to n - 1 do
    if Scl.Flat.get s i <> k then ok := false
  done;
  !ok

(* Block [k] of the ring test: [n] elements cycling through values an
   encoding could bend, compared bit for bit — float64 (-0.0, a NaN
   carrying a payload, the infinities) for even [k], int ([min_int],
   [max_int]) for odd [k]; each cycle also holds [k] itself. *)
let ring_floats k =
  [| -0.0; Int64.float_of_bits 0x7FF8_0000_DEAD_BEEFL; infinity; neg_infinity; float_of_int k |]
let ring_ints k = [| min_int; max_int; k; -k |]

let ring_float_block n k : Scl.Flat.float1 =
  let v = ring_floats k in
  Scl.Flat.init Scl.Flat.float64 n (fun i -> v.(i mod Array.length v))

let ring_int_block n k : Scl.Flat.int1 =
  let v = ring_ints k in
  Scl.Flat.init Scl.Flat.int n (fun i -> v.(i mod Array.length v))

let ring_block_ok ~bits s expected n =
  Scl.Flat.length s = n
  &&
  let ok = ref true in
  for i = 0 to n - 1 do
    if bits (Scl.Flat.get s i) <> bits expected.(i mod Array.length expected) then ok := false
  done;
  !ok

(* Rank 1 stays out of the engine, blocked on a FIFO, while rank 0 fills
   its 16 MB ring toward rank 1 with eight 2 MB slices on two alternating
   tags, floats on tag 0 and ints on tag 1.  Rank 0 then releases rank 1
   and sends four more: the first of them, a float slice, finds the ring
   full and takes the socket, and once rank 1's credits come back the
   arena takes slices again.  Rank 1 drains tag 1 before tag 0, so the
   stash holds arena and socket messages side by side; each tag must
   still come out in send order, every element intact to the bit. *)
let test_ring_exhaustion_falls_back () =
  let n = 1 lsl 18 and count = 12 in
  let v, stats =
    with_fifo (fun fifo ->
        Procs.run_collect ~procs:2 (fun eng ->
            with_open fifo @@ fun fd ->
            if eng.Engine.rank = 0 then begin
              for k = 0 to count - 1 do
                if k = 8 then ignore (Unix.write_substring fd "!" 0 1);
                if k mod 2 = 0 then eng.Engine.send_slice ~dest:1 ~tag:0 (ring_float_block n k)
                else eng.Engine.send_slice ~dest:1 ~tag:1 (ring_int_block n k)
              done;
              None
            end
            else begin
              ignore (Unix.read fd (Bytes.create 1) 0 1);
              let odd =
                List.init (count / 2) (fun j ->
                    let k = (2 * j) + 1 in
                    let (s : Scl.Flat.int1) = eng.Engine.recv_slice ~src:0 ~tag:1 () in
                    if ring_block_ok ~bits:Fun.id s (ring_ints k) n then k else -1)
              in
              let even =
                List.init (count / 2) (fun j ->
                    let k = 2 * j in
                    let (s : Scl.Flat.float1) = eng.Engine.recv_slice ~src:0 ~tag:0 () in
                    if ring_block_ok ~bits:Int64.bits_of_float s (ring_floats k) n then k
                    else -1)
              in
              Some (even, odd)
            end))
  in
  Alcotest.(check (pair (list int) (list int)))
    "per-tag send order, contents intact"
    (List.init (count / 2) (fun i -> 2 * i), List.init (count / 2) (fun i -> (2 * i) + 1))
    v;
  Alcotest.(check bool)
    (Printf.sprintf "the ring filled, then took slices again (%d of %d through it)"
       stats.Procs.arena_msgs count)
    true
    (stats.Procs.arena_msgs > 8 && stats.Procs.arena_msgs < count)

(* Both ranks push 24 MB of bulk slices at each other before either
   receives one: both rings fill and both ranks end up in socket writes,
   each draining the other (copying arena slices out and crediting them)
   while it waits. *)
let test_bulk_slices_both_ways () =
  let n = 1 lsl 18 and count = 12 in
  let v, stats =
    Procs.run_collect ~procs:2 (fun eng ->
        let me = eng.Engine.rank in
        let other = 1 - me in
        for k = 0 to count - 1 do
          eng.Engine.send_slice ~dest:other ~tag:0 (int_block n ((me * 100) + k))
        done;
        let ok = ref true in
        for k = 0 to count - 1 do
          let (s : Scl.Flat.int1) = eng.Engine.recv_slice ~src:other ~tag:0 () in
          if not (all_equal s n ((other * 100) + k)) then ok := false
        done;
        Comm.gather (Comm.world eng) ~root:0 !ok)
  in
  Alcotest.(check (array bool)) "every slice intact, in order" [| true; true |] v;
  Alcotest.(check bool) "the arena carried some" true (stats.Procs.arena_msgs > 0)

(* The arena's threshold is one 64 KiB chunk: a slice of 8191 elements
   or fewer is an ordinary marshal frame on the socket (the 8191-element
   one's frame is longer than a chunk, so it follows its header in its
   own write), one of 8192 takes the arena.  Float and int slices of
   lengths 0, 1, 8191 and 8192, cycling through the ring test's values,
   must arrive bit for bit, and exactly the two 8192-element ones count
   as arena messages. *)
let test_short_slices_take_the_socket () =
  let lengths = [ 0; 1; 8191; 8192 ] in
  let v, stats =
    Procs.run_collect ~procs:2 (fun eng ->
        if eng.Engine.rank = 0 then begin
          List.iter
            (fun n ->
              eng.Engine.send_slice ~dest:1 ~tag:0 (ring_float_block n 3);
              eng.Engine.send_slice ~dest:1 ~tag:1 (ring_int_block n 5))
            lengths;
          None
        end
        else
          Some
            (List.map
               (fun n ->
                 let (f : Scl.Flat.float1) = eng.Engine.recv_slice ~src:0 ~tag:0 () in
                 let (i : Scl.Flat.int1) = eng.Engine.recv_slice ~src:0 ~tag:1 () in
                 ring_block_ok ~bits:Int64.bits_of_float f (ring_floats 3) n
                 && ring_block_ok ~bits:Fun.id i (ring_ints 5) n)
               lengths))
  in
  Alcotest.(check (list bool)) "every slice intact to the bit" [ true; true; true; true ] v;
  Alcotest.(check int) "only the chunk-sized slices took the arena" 2 stats.Procs.arena_msgs

(* The arena files this process maps (each shows up twice, once per
   view, as a deleted file). *)
let mapped_arenas () =
  let ic = open_in "/proc/self/maps" in
  let rec go acc =
    match input_line ic with
    | line -> (
        match String.index_opt line '/' with
        | Some i when contains line "scl-arena-" ->
            let path = String.sub line i (String.length line - i) in
            go (if List.mem path acc then acc else path :: acc)
        | _ -> go acc)
    | exception End_of_file -> acc
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> List.length (go []))

(* A rank that starts a Procs run of its own maps a second arena for it
   (its siblings still use the inherited one), and both runs move bulk
   slices through their own arena at the same time. *)
let test_nested_run_maps_own_arena () =
  let n = 1 lsl 16 in
  let swap eng =
    let me = eng.Engine.rank in
    eng.Engine.send_slice ~dest:(1 - me) ~tag:0 (int_block n me);
    let (s : Scl.Flat.int1) = eng.Engine.recv_slice ~src:(1 - me) ~tag:0 () in
    all_equal s n (1 - me)
  in
  let v, stats =
    Procs.run_collect ~procs:2 (fun eng ->
        let outer = swap eng in
        let before = mapped_arenas () in
        let r =
          if eng.Engine.rank = 0 then begin
            let (inner, inner_maps), inner_stats =
              Procs.run_collect ~procs:2 (fun e ->
                  let ok = swap e in
                  if e.Engine.rank = 0 then Some (ok, mapped_arenas ()) else None)
            in
            Some (outer && inner, before, mapped_arenas (), inner_maps, inner_stats.Procs.arena_msgs)
          end
          else None
        in
        (* a second outer swap while the inner run's arena exists *)
        let again = swap eng in
        Option.map (fun (ok, b, a, i, m) -> (ok && again, b, a, i, m)) r)
  in
  let ok, before, after, inner_maps, inner_arena_msgs = v in
  Alcotest.(check bool) "every swap intact" true ok;
  Alcotest.(check int) "a rank inherits one arena" 1 before;
  Alcotest.(check int) "its own run maps a second" 2 after;
  Alcotest.(check int) "the inner ranks see both" 2 inner_maps;
  Alcotest.(check int) "inner slices took the inner arena" 2 inner_arena_msgs;
  Alcotest.(check int) "outer slices took the outer arena" 4 stats.Procs.arena_msgs;
  Alcotest.(check int) "this process still maps one" 1 (mapped_arenas ())

(* --- chaos on real processes --------------------------------------------- *)

let faults ?seeds only = C.oracle ?seeds ~only Prop.Engine_oracle.faults Backend.procs
let test_chaos_zero_fault_value_identical () = faults [ "zero-fault wrap" ]

let test_chaos_delays_value_identical () =
  faults ~seeds:C.delay_seeds [ "chaos-delay" ];
  faults [ "chaos-straggler" ]


(* --- the crash-tolerant farm, driven by real process deaths --------------- *)

let test_farm_on_procs () =
  List.iter
    (fun stats -> Alcotest.(check (list int)) "no crashes" [] stats.Procs.crashed)
    (C.dynamic_farm Backend.procs)

(* the catalogue's case also checks the dead rank is the one recorded *)
let test_farm_survives_chaos_worker_crash () = faults [ "farm crash" ]

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
  Alcotest.(check bool) "all jobs done despite the kill" true (got = Prop.Engine_oracle.farm_expected njobs);
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

let maps_lines () =
  let ic = open_in "/proc/self/maps" in
  let rec go n = match input_line ic with _ -> go (n + 1) | exception End_of_file -> n in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go 0)

let shm_leftovers () =
  List.filter
    (fun f -> String.length f >= 9 && String.sub f 0 9 = "scl-arena")
    (Array.to_list (try Sys.readdir "/dev/shm" with Sys_error _ -> [||]))

let shm_entries () = Array.to_list (try Sys.readdir "/dev/shm" with Sys_error _ -> [||])

(* 50 flat runs in which both ranks produce a result larger than the
   socket buffer: rank 1's is never read, so its child finds its verdict
   socket closed mid-stream.  Every socket closed, every child reaped, and
   nothing left in /dev/shm. *)
let test_repeated_flat_runs_leave_nothing () =
  Procs.shutdown ();
  let before = fd_count () and shm_before = List.sort compare (shm_entries ()) in
  let n = 1 lsl 16 in
  for _ = 1 to 50 do
    let v, _ =
      Procs.run_flat ~procs:2 ~kind:Scl.Flat.int (fun eng ->
          Some [| Scl.Flat.make Scl.Flat.int n eng.Engine.rank |])
    in
    Alcotest.(check bool) "rank 0's parts" true (v = Array.make n 0)
  done;
  Procs.shutdown ();
  Alcotest.(check int) "no fd leaked" before (fd_count ());
  Alcotest.(check (list string)) "no /dev/shm entry added" shm_before
    (List.sort compare (shm_entries ()));
  match Unix.waitpid [ WNOHANG ] (-1) with
  | pid, _ -> Alcotest.failf "child %d left behind" pid
  | exception Unix.Unix_error (ECHILD, _, _) -> ()

(* [Scl.Flat.concat] against [Array.concat] of [to_array], and the procs
   stream against both: 0..7 parts whose lengths sit on and around the
   stream's 64 KiB (8192-element) chunk boundaries. *)
let test_concat_matches_array_concat =
  let len = QCheck.Gen.(oneof [ int_range 0 20; map (fun d -> 8192 + d) (int_range (-3) 3); int_range 0 20_000 ]) in
  let parts = QCheck.Gen.(list_size (int_range 0 7) len) in
  let print = QCheck.Print.(list int) in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40 ~name:"Flat.concat = Array.concat, procs stream too"
       (QCheck.make ~print parts)
       (fun lens ->
         let ints = Array.of_list (List.mapi (fun r len -> C.int_part ~len r) lens) in
         let floats = Array.of_list (List.mapi (fun r len -> C.float_part ~len r) lens) in
         let spec parts = Array.concat (List.map Scl.Flat.to_array (Array.to_list parts)) in
         let streamed kind parts = fst (Procs.run_flat ~procs:1 ~kind (fun _ -> Some parts)) in
         let int_ok =
           let want = spec ints in
           Scl.Flat.concat Scl.Flat.int ints = want && streamed Scl.Flat.int ints = want
         in
         let float_ok =
           let want = C.float_bits (spec floats) in
           C.float_bits (Scl.Flat.concat Scl.Flat.float64 floats) = want
           && C.float_bits (streamed Scl.Flat.float64 floats) = want
         in
         int_ok && float_ok))

let test_repeated_runs_leave_nothing () =
  (* clean runs, a rank that raises, and a chaos crash, 300 runs in all:
     every socket closed and every child reaped each time *)
  Procs.shutdown ();
  let before = fd_count () in
  let sum c =
    let s = Comm.allreduce c ( + ) (Comm.rank c) in
    if Comm.rank c = 0 then Some s else None
  in
  let chaos = { Chaos.none with Chaos.crashes = [ (2, 1) ] } in
  let maps_after_first = ref 0 in
  for i = 1 to 100 do
    Alcotest.(check int) "clean allreduce" 6 (fst (Spmd.run Backend.procs ~procs:4 sum));
    if i = 1 then maps_after_first := maps_lines ();
    (match Procs.run_each ~procs:4 (fun _ eng -> if eng.Engine.rank = 3 then failwith "boom") with
    | _ -> Alcotest.fail "expected Failure"
    | exception Failure _ -> ());
    match Spmd.run Backend.procs ~procs:4 ~chaos sum with
    | _ -> Alcotest.fail "expected Fault.Crashed"
    | exception Fault.Crashed _ -> ()
  done;
  Procs.shutdown ();
  Alcotest.(check int) "no fd leaked" before (fd_count ());
  Alcotest.(check (list string)) "no arena file left in /dev/shm" [] (shm_leftovers ());
  Alcotest.(check bool)
    (Printf.sprintf "no mapping added after the first run (%d, then %d)" !maps_after_first
       (maps_lines ()))
    true
    (maps_lines () <= !maps_after_first);
  match Unix.waitpid [ WNOHANG ] (-1) with
  | pid, _ -> Alcotest.failf "child %d left behind" pid
  | exception Unix.Unix_error (ECHILD, _, _) -> ()

(* --- the run-scoped workspace ----------------------------------------------- *)

(* Procs children lend fresh storage from [Comm.workspace]; it dies with
   the child, and the parent's free list (warmed here by a simulated run)
   is neither used nor changed. *)
let test_procs_flat_sort_keeps_parent_free_list () =
  let a = Runtime.Xoshiro.int_array (Runtime.Xoshiro.of_seed 27) ~len:20_000 ~bound:1_000_000 in
  let expect = Array.copy a in
  Array.sort compare expect;
  let sim = Backend.sim () in
  Alcotest.(check (array int)) "sim sorts" expect (fst (Algorithms.Hyperquicksort.sort_flatint sim ~procs:2 a));
  let before = Workspace.retained () in
  Alcotest.(check bool) "the parent's free list is warm" true (fst before > 0);
  List.iter
    (fun procs ->
      Alcotest.(check (array int))
        (Printf.sprintf "procs sorts p=%d" procs)
        expect
        (fst (Algorithms.Hyperquicksort.sort_flatint Backend.procs ~procs a));
      Alcotest.(check (pair int int)) "parent's free list untouched" before (Workspace.retained ()))
    [ 2; 4 ]

(* --- the rank pool ------------------------------------------------------- *)

(* Collectives whose values the simulator fixes. *)
let pool_program c =
  let s = Comm.allreduce c ( + ) (Comm.rank c + 1) in
  let all = Comm.allgather c ((Comm.rank c * 7) + s) in
  if Comm.rank c = 0 then Some (s, Array.to_list all) else None

let sim_value procs = fst (Spmd.run (Backend.sim ()) ~procs pool_program)

(* [procs] ranks' values equal sim's; returns how many processes the
   run forked. *)
let pool_run what procs =
  let v, stats = Spmd.run Backend.procs ~procs pool_program in
  Alcotest.(check (pair int (list int))) (what ^ ": values equal sim's") (sim_value procs) v;
  stats.Procs.forked

(* Each kind of failed run retires the pool: the next run forks a fresh
   one and computes what sim does, and the run after that forks
   nothing. *)
let test_pool_after_failed_runs () =
  ignore (pool_run "warm-up" 4);
  let next what =
    Alcotest.(check int) (what ^ ": a new pool") 4 (pool_run what 4);
    Alcotest.(check int) (what ^ ": then that pool serves") 0 (pool_run what 4)
  in
  (match Procs.run_each ~procs:4 (fun r _ -> if r = 2 then failwith "boom") with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure _ -> ());
  next "after a raising run";
  Alcotest.(check (list int)) "chaos crash recorded" [ 1 ]
    (C.crash_is_fail_stop Backend.procs).Procs.crashed;
  next "after a Chaos crash";
  Alcotest.(check (list int)) "the kill is recorded" [ 3 ]
    (Procs.run_each ~procs:4 (fun r _ -> if r = 3 then kill_self ())).Procs.crashed;
  next "after a SIGKILL"

(* A program that captures a mutex cannot be shipped: the runner says
   so before any rank runs, and the pool serves the next run as it
   was. *)
let test_captured_mutex_is_unserializable () =
  ignore (pool_run "warm-up" 2);
  let m = Mutex.create () in
  (match Procs.run_collect ~procs:2 (fun eng -> Mutex.protect m (fun () -> Some eng.Engine.rank)) with
  | _ -> Alcotest.fail "expected Fault.Unserializable"
  | exception Fault.Unserializable msg ->
      Alcotest.(check bool) ("names its runner: " ^ msg) true (contains msg "Procs.run_collect"));
  Alcotest.(check int) "the same pool serves on" 0 (pool_run "after the refusal" 2)

(* Every descriptor a rank holds beyond stdio: its sockets and the
   pool's staging file.  A pipe open in this process when the pool forks
   must not be among them. *)
let test_rank_keeps_only_its_sockets () =
  Procs.shutdown ();
  let rd, wr = Unix.pipe () in
  let v, _ =
    Fun.protect
      ~finally:(fun () ->
        Unix.close rd;
        Unix.close wr)
      (fun () ->
        Procs.init ~procs:4;
        Procs.run_collect ~procs:4 (fun eng ->
            let held =
              List.filter_map
                (fun name ->
                  match int_of_string_opt name with
                  | Some n when n > 2 -> (
                      (* the directory's own descriptor is gone by now *)
                      try Some (Unix.readlink (Printf.sprintf "/proc/self/fd/%d" n))
                      with Unix.Unix_error _ -> None)
                  | _ -> None)
                (Array.to_list (Sys.readdir "/proc/self/fd"))
            in
            Comm.gather (Comm.world eng) ~root:0 held))
  in
  Array.iteri
    (fun r held ->
      let sockets, files = List.partition (String.starts_with ~prefix:"socket:") held in
      Alcotest.(check int) (Printf.sprintf "rank %d: one control socket, three links" r) 4 (List.length sockets);
      match files with
      | [ f ] ->
          Alcotest.(check bool) (Printf.sprintf "rank %d holds the staging file: %s" r f) true
            (contains f "scl-arena" && contains f "-stage")
      | _ -> Alcotest.failf "rank %d holds %s" r (String.concat ", " files))
    v

(* A global of this process, read by the ranks. *)
let stamp = ref 0

let test_ranks_see_fork_time_state () =
  Procs.shutdown ();
  stamp := 1;
  Procs.init ~procs:2;
  stamp := 2;
  let seen () =
    let v, stats = Procs.run_collect ~procs:2 (fun eng -> Comm.gather (Comm.world eng) ~root:0 !stamp) in
    (Array.to_list v, stats.Procs.forked)
  in
  Alcotest.(check (pair (list int) int)) "the pool's ranks see the value at its fork" ([ 1; 1 ], 0) (seen ());
  Procs.shutdown ();
  Alcotest.(check (pair (list int) int)) "a new pool sees the current one" ([ 2; 2 ], 2) (seen ())

(* Rank 0 fills its socket toward rank 1 with a boxed frame just before
   it finishes, while rank 1 pushes arena slices at it, part of them
   while out of the engine: whatever credit rank 0 still owes for them
   must not reach a later run. *)
let credit_race eng =
  let n = 16384 (* 128 KiB: an arena slice *) in
  if eng.Engine.rank = 1 then begin
    for k = 0 to 3 do
      eng.Engine.send_slice ~dest:0 ~tag:1 (int_block n k)
    done;
    Unix.sleepf 0.002;
    for k = 4 to 7 do
      eng.Engine.send_slice ~dest:0 ~tag:1 (int_block n k)
    done;
    ignore (eng.Engine.recv ~src:0 ~tag:2 () : int array)
  end
  else begin
    eng.Engine.send ~dest:1 ~tag:2 (Array.make (1 lsl 17) max_int);
    for _ = 0 to 7 do
      ignore (eng.Engine.recv_slice ~src:1 ~tag:1 () : Scl.Flat.int1)
    done
  end

(* More slices than a ring holds, pushed at a reader that starts late:
   a stale credit would let a block overwrite one not yet copied out. *)
let ring_overrun c =
  let n = 16384 and count = 140 in
  if Comm.rank c = 1 then begin
    for k = 0 to count - 1 do
      Comm.send_slice c ~dest:0 (int_block n k)
    done;
    None
  end
  else begin
    Unix.sleepf 0.02;
    Some
      (List.init count (fun _ ->
           let (s : Scl.Flat.int1) = Comm.recv_slice c ~src:1 () in
           (Scl.Flat.get s 0, Scl.Flat.get s (n - 1))))
  end

let test_no_credit_crosses_runs () =
  ignore (pool_run "warm-up" 2);
  let expect = fst (Spmd.run (Backend.sim ()) ~procs:2 ring_overrun) in
  for i = 1 to 10 do
    ignore (Procs.run_each ~procs:2 (fun _ eng -> credit_race eng));
    let v, stats = Spmd.run Backend.procs ~procs:2 ring_overrun in
    Alcotest.(check (list (pair int int))) (Printf.sprintf "round %d: values equal sim's" i) expect v;
    Alcotest.(check int) (Printf.sprintf "round %d: the same pool" i) 0 stats.Procs.forked
  done

(* The flat sort's keys reach rank 0 as input words, not inside the
   job image; a program that captures its keys ships them in it. *)
let test_input_stays_out_of_the_image () =
  let keys = Array.init 100_000 (fun i -> i * 7919 mod 100_003) in
  let sorted, stats = Algorithms.Hyperquicksort.sort_procs ~procs:2 keys in
  let expect = Array.copy keys in
  Array.sort compare expect;
  Alcotest.(check (array int)) "sorted" expect sorted;
  Alcotest.(check bool)
    (Printf.sprintf "a small image (%d bytes)" stats.Procs.job_bytes)
    true (stats.Procs.job_bytes < 4096);
  let captured = Procs.run_each ~procs:2 (fun r _ -> if r = 0 then ignore (Array.length keys)) in
  Alcotest.(check bool)
    (Printf.sprintf "a captured array rides in it (%d bytes)" captured.Procs.job_bytes)
    true
    (captured.Procs.job_bytes > Array.length keys)

(* A descriptor a program captures from this process names nothing in a
   rank, even when its number was one of the pool's sockets here before
   the fork's ends were closed: the run fails, it does not write into
   the fabric. *)
let test_captured_descriptor_is_not_a_socket () =
  Procs.shutdown ();
  Procs.init ~procs:2;
  let rd, wr = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      Unix.close rd;
      Unix.close wr)
    (fun () ->
      match Procs.run_each ~procs:2 (fun _ _ -> ignore (Unix.write_substring wr "x" 0 1)) with
      | _ -> Alcotest.fail "expected Child_failure"
      | exception Procs.Child_failure (_, msg) ->
          Alcotest.(check bool) ("EBADF in the rank: " ^ msg) true (contains msg "EBADF"));
  Alcotest.(check int) "a new pool serves" 2 (pool_run "after the failure" 2)

(* A program that captures a 1 MB array ships it to all four ranks in
   its job image, every copy through one [select] loop. *)
let test_large_image_reaches_every_rank () =
  let big = Array.init (1 lsl 17) (fun i -> (i * 40_503) lxor (i lsl 7)) in
  let program c =
    let s = Comm.allreduce c ( + ) (big.((Comm.rank c * 1000) + 1) + Array.length big) in
    if Comm.rank c = 0 then Some s else None
  in
  let v, stats = Spmd.run Backend.procs ~procs:4 program in
  Alcotest.(check int) "values equal sim's" (fst (Spmd.run (Backend.sim ()) ~procs:4 program)) v;
  Alcotest.(check bool)
    (Printf.sprintf "the array rides in the image (%d bytes)" stats.Procs.job_bytes)
    true
    (stats.Procs.job_bytes > 1 lsl 20)

(* --- the staging file ------------------------------------------------------ *)

let keys ~seed len = Runtime.Xoshiro.int_array (Runtime.Xoshiro.of_seed seed) ~len ~bound:1_000_000_000

let sort_equals_sim what ~procs a =
  let sort backend = fst (Algorithms.Hyperquicksort.sort_flatint backend ~procs a) in
  let before = Array.copy a in
  let v = sort Backend.procs in
  Alcotest.(check (array int)) (what ^ ": equals sim") (sort (Backend.sim ())) v;
  Alcotest.(check bool) (what ^ ": the caller's keys unchanged") true (a = before)

(* A second input larger than the first outgrows the staging file and
   every rank's mapping of it: the file grows, the ranks remap, and the
   same pool serves both runs. *)
let test_staging_grows () =
  ignore (pool_run "warm-up" 2);
  List.iteri
    (fun i len ->
      let a = keys ~seed:i len in
      sort_equals_sim (Printf.sprintf "%d keys" len) ~procs:2 a)
    [ 10_000; 200_000 ];
  Alcotest.(check int) "the same pool" 0 (pool_run "after the growth" 2)

(* Rank 0 returns its input, its negation and its input again: a result
   three times its input's length, which outgrows the file on the
   rank's side. *)
let test_result_longer_than_input () =
  let n = 30_000 in
  let a = keys ~seed:3 n in
  let program c =
    match Comm.input c Scl.Flat.int with
    | Some (s : Scl.Flat.int1) ->
        let neg = Comm.workspace c Scl.Flat.int n in
        for i = 0 to n - 1 do
          Scl.Flat.set neg i (-Scl.Flat.get s i)
        done;
        Some [| s; neg; s |]
    | None -> None
  in
  let run backend = fst (Spmd.run_flat backend ~procs:2 ~kind:Scl.Flat.int ~input:a program) in
  let v = run Backend.procs in
  Alcotest.(check int) "three times the input" (3 * n) (Array.length v);
  Alcotest.(check (array int)) "equals sim" (run (Backend.sim ())) v

(* At p = 1 the only block is the input itself, sorted in place in the
   staging file and returned whole: the result region must not overlap
   it. *)
let test_one_rank_sorts_its_input_in_place () =
  sort_equals_sim "p = 1" ~procs:1 (keys ~seed:5 100_000)

(* Float64 input and result keep their bits: NaNs with payloads and
   either sign, signed zeros, infinities and subnormals, through rank
   0's staged input, a round trip to rank 1 and the result region. *)
let test_float_bits_survive_staging () =
  let specials =
    [|
      Float.nan;
      Int64.float_of_bits 0x7FF8_0000_DEAD_BEEFL;
      Int64.float_of_bits 0xFFF4_0000_0000_0001L;
      -0.0;
      0.0;
      infinity;
      neg_infinity;
      5e-324;
      -.Float.min_float;
    |]
  in
  let a = Array.init 20_000 (fun i -> if i mod 3 = 0 then specials.(i / 3 mod Array.length specials) else float_of_int i /. 7.0) in
  let program c =
    match (Comm.rank c, Comm.input c Scl.Flat.float64) with
    | 0, Some (s : Scl.Flat.float1) ->
        Comm.send_slice c ~dest:1 s;
        Some [| s; (Comm.recv_slice c ~src:1 () : Scl.Flat.float1) |]
    | _ ->
        let (s : Scl.Flat.float1) = Comm.recv_slice c ~src:0 () in
        Comm.send_slice c ~dest:0 s;
        None
  in
  let run backend = fst (Spmd.run_flat backend ~procs:2 ~kind:Scl.Flat.float64 ~input:a program) in
  let v = run Backend.procs in
  Alcotest.(check (array int64)) "the input twice, bit for bit" (C.float_bits (Array.append a a)) (C.float_bits v);
  Alcotest.(check (array int64)) "equals sim bit for bit" (C.float_bits (run (Backend.sim ()))) (C.float_bits v)

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
        Alcotest.test_case "16 MB result round-trips" `Quick test_bulk_result_round_trips;
        Alcotest.test_case "closure result beside a bulk one" `Quick
          test_unserializable_result_beside_bulk;
      ] );
    ( "crashes",
      [
        Alcotest.test_case "SIGKILL mid-protocol is Crashed" `Quick
          test_real_kill_mid_protocol_is_crashed;
        Alcotest.test_case "timed recv from dead peer times out" `Quick
          test_real_kill_timed_recv_still_times_out;
        Alcotest.test_case "chaos crash is fail-stop" `Quick test_chaos_crash_is_fail_stop;
        Alcotest.test_case "SIGKILL mid-result is Crashed" `Quick test_kill_mid_result;
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
        Alcotest.test_case "cannon and summa" `Quick test_engine_equivalence_cannon_summa;
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
        Alcotest.test_case "50 flat runs leak nothing" `Quick test_repeated_flat_runs_leave_nothing;
        test_concat_matches_array_concat;
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
      ( "arena",
        [
          Alcotest.test_case "full ring falls back mid-stream" `Quick
            test_ring_exhaustion_falls_back;
          Alcotest.test_case "bulk slices both ways" `Quick test_bulk_slices_both_ways;
          Alcotest.test_case "nested run maps its own arena" `Quick
            test_nested_run_maps_own_arena;
          Alcotest.test_case "slices under a chunk take the socket" `Quick
            test_short_slices_take_the_socket;
        ] );
      ( "workspace",
        [
          Alcotest.test_case "flat sort keeps the parent's free list" `Quick
            test_procs_flat_sort_keeps_parent_free_list;
        ] );
      ( "pool",
        [
          Alcotest.test_case "failed runs retire it, values equal sim" `Quick
            test_pool_after_failed_runs;
          Alcotest.test_case "captured mutex is Unserializable" `Quick
            test_captured_mutex_is_unserializable;
          Alcotest.test_case "ranks keep only their sockets" `Quick test_rank_keeps_only_its_sockets;
          Alcotest.test_case "ranks see the fork-time process" `Quick test_ranks_see_fork_time_state;
          Alcotest.test_case "no credit crosses runs" `Quick test_no_credit_crosses_runs;
          Alcotest.test_case "a captured descriptor is not a socket" `Quick
            test_captured_descriptor_is_not_a_socket;
          Alcotest.test_case "input stays out of the job image" `Quick test_input_stays_out_of_the_image;
          Alcotest.test_case "a large image reaches every rank" `Quick
            test_large_image_reaches_every_rank;
          Alcotest.test_case "a larger input grows the staging file" `Quick test_staging_grows;
          Alcotest.test_case "a result longer than its input" `Quick test_result_longer_than_input;
          Alcotest.test_case "p = 1 returns its input sorted in place" `Quick
            test_one_rank_sorts_its_input_in_place;
          Alcotest.test_case "float64 bits survive staging" `Quick test_float_bits_survive_staging;
        ] );
    ]

(* --- a one-domain multicore run ------------------------------------------ *)

let threads () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 8 && String.sub line 0 8 = "Threads:" ->
        String.trim (String.sub line 8 (String.length line - 8))
    | _ -> find ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let test_one_domain_multicore_spawns_none () =
  (* [~domains:1] runs every rank on the calling domain: no domain is
     spawned, so the process may still fork afterwards *)
  let v, _ = Multicore.run_collect ~domains:1 ~procs:2 (fun eng -> Some eng.Engine.size) in
  Alcotest.(check int) "multicore ran" 2 v;
  Alcotest.(check string) "still one thread" "1" (threads ());
  let w, _ = Procs.run_collect ~procs:2 (fun eng -> Some eng.Engine.size) in
  Alcotest.(check int) "procs still forks" 2 w

(* --- a pool forked before the first domain ---------------------------------- *)

let test_pool_outlives_domain_spawn () =
  (* the first domain of this process: no fork is possible after it *)
  Procs.shutdown ();
  Procs.init ~procs:4;
  Domain.join (Domain.spawn ignore);
  Alcotest.(check int) "4 ranks, nothing forked" 0 (pool_run "4 ranks after the spawn" 4);
  Alcotest.(check int) "2 ranks, nothing forked" 0 (pool_run "2 ranks after the spawn" 2);
  (match Procs.run_each ~procs:8 (fun _ _ -> ()) with
  | _ -> Alcotest.fail "expected Procs.Fork_after_domain"
  | exception Procs.Fork_after_domain -> ());
  Alcotest.(check int) "the pool still serves" 0 (pool_run "4 ranks after the refused growth" 4)

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
  Procs.shutdown ();
  let before = fd_count () in
  (match Procs.run_each ~procs:4 (fun _ _ -> ()) with
  | _ -> Alcotest.fail "expected Procs.Fork_after_domain"
  | exception Procs.Fork_after_domain -> ());
  Alcotest.(check int) "no fd leaked" before (fd_count ())

(* Must stay the last groups: see the note at the top of the file.  The
   pool-after-domain case spawns this process's first domain. *)
let suite =
  suite
  @ [
      ( "one-domain-multicore",
        [ Alcotest.test_case "spawns no domain" `Quick test_one_domain_multicore_spawns_none ] );
      ( "pool-after-domain",
        [ Alcotest.test_case "serves on, cannot grow" `Quick test_pool_outlives_domain_spawn ] );
      ( "run-contract",
        [ Alcotest.test_case "lowest rank wins on every engine" `Quick test_lowest_rank_wins ] );
      ( "fork-after-domain",
        [ Alcotest.test_case "named error, no fd leak" `Quick test_fork_after_domain ] );
    ]

let () = Alcotest.run "procs" suite
