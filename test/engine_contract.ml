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
let argument_checks (type s) (backend : s Backend.t) =
  let e = prefix backend in
  let s = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 1 in
  let self op = Printf.sprintf "%s.%s: self-send is not supported (use a local value)" e op in
  let range op = Printf.sprintf "%s.%s: rank 2 out of range [0,2)" e op in
  let negative op what = Printf.sprintf "%s.%s: negative %s" e op what in
  let nan op what = Printf.sprintf "%s.%s: %s is NaN" e op what in
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
      ( Printf.sprintf "%s.send_slice: slice kind must be float64 or int" e,
        fun eng ->
          eng.Engine.send_slice ~dest:1 ~tag:0
            (Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout 1) );
      (negative "work" "duration", fun eng -> eng.Engine.work (-1.0));
      (negative "sleep" "duration", fun eng -> eng.Engine.sleep (-1.0));
      (nan "work" "duration", fun eng -> eng.Engine.work Float.nan);
      (nan "sleep" "duration", fun eng -> eng.Engine.sleep Float.nan);
      (nan "recv" "timeout", fun eng -> ignore (eng.Engine.recv ~timeout:Float.nan ~src:1 ~tag:0 () : int));
      (nan "recv_any" "timeout", fun eng -> ignore (eng.Engine.recv_any ~timeout:Float.nan () : int * int));
      ( nan "recv_slice" "timeout",
        fun eng -> ignore (eng.Engine.recv_slice ~timeout:Float.nan ~src:1 ~tag:0 ()) );
    ];
  (* every runner names itself; [Spmd.run] is the engine's run_collect *)
  let runners : (string * (int -> unit)) list =
    let collect procs = ignore (run backend ~procs (fun _ -> Some ())) in
    match backend with
    | Backend.Sim _ -> [ ("run_collect", collect) ]
    | Backend.Multicore _ ->
        [
          ("run_each", fun procs -> ignore (Multicore.run_each ~procs (fun _ _ -> ())));
          ("run_collect", collect);
        ]
    | Backend.Procs ->
        [
          ("run_collect", collect);
          ("run_flat", fun procs -> ignore (Procs.run_flat ~procs ~kind:Scl.Flat.int (fun _ -> None)));
        ]
  in
  List.iter
    (fun (runner, start) ->
      List.iter
        (fun procs ->
          let expected = Printf.sprintf "%s.%s: procs must be positive" e runner in
          Alcotest.check_raises (Printf.sprintf "%s procs:%d" runner procs) (Invalid_argument expected)
            (fun () -> start procs))
        [ 0; -1 ])
    runners

(* Three senders push [msgs] tagged messages each to rank 0, which drains
   them grouped by (source, tag) in an order unrelated to arrival.  Checks:
   per-(source, tag) FIFO, multiset integrity (count and sum), and that the
   stash never loses a message.  Bare engines only: Chaos relaxes FIFO by
   design. *)
let fifo_under_interleaving ?(seed = 42) backend =
  let msgs = 500 in
  let ntags = 3 in
  let tags_for src =
    let rng = Runtime.Xoshiro.of_seed (seed + src) in
    Array.init msgs (fun _ -> Runtime.Xoshiro.int rng ntags)
  in
  let v, _ =
    run backend ~procs:4 (fun eng ->
        let me = eng.Engine.rank in
        if me > 0 then begin
          let tags = tags_for me in
          Array.iteri (fun i tag -> eng.Engine.send ~dest:0 ~tag (me * 1_000_000 + i)) tags;
          None
        end
        else begin
          let ok = ref true in
          let received = ref 0 in
          let sum = ref 0 in
          (* group order deliberately different from arrival order *)
          for tag = ntags - 1 downto 0 do
            for src = 3 downto 1 do
              let expected = tags_for src in
              let last = ref (-1) in
              Array.iteri
                (fun i t ->
                  if t = tag then begin
                    let (v : int) = eng.Engine.recv ~src ~tag () in
                    incr received;
                    sum := !sum + v;
                    let seq = v mod 1_000_000 in
                    if v / 1_000_000 <> src || seq <> i || seq <= !last then ok := false;
                    last := seq
                  end)
                expected
            done
          done;
          let expected_sum =
            let s = ref 0 in
            for src = 1 to 3 do
              for i = 0 to msgs - 1 do
                s := !s + (src * 1_000_000) + i
              done
            done;
            !s
          in
          Some (!ok && !received = 3 * msgs && !sum = expected_sum)
        end)
  in
  Alcotest.(check bool) "per-(src,tag) FIFO and multiset intact" true v

(* Empty, small and bulk payloads of every tier on one (source, tag)
   channel: each arrives in send order with its value intact.  On procs
   the bulk frames span many socket reads and the small ones share a
   read with the next frame's header. *)
let frame_boundaries backend =
  let empty () = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 0 in
  let boxed_n = 1 lsl 19 (* 4 MB *) and flat_n = 1 lsl 18 (* 2 MB *) in
  let slice_n = 1 lsl 20 in
  let entry i = (i * 2_654_435_761) lxor (i lsr 3) in
  let value i = float_of_int i /. 3.0 in
  let v, _ =
    run backend ~procs:2 (fun eng ->
        let open Engine in
        if eng.rank = 0 then begin
          let flat_base =
            Scl.Flat.Int.of_int_array (Array.init (flat_n + 2) (fun i -> entry (i - 1)))
          in
          eng.send_slice ~dest:1 ~tag:3 (empty ());
          eng.send ~dest:1 ~tag:3 42;
          eng.send ~dest:1 ~tag:3 (Array.init boxed_n entry);
          eng.send ~dest:1 ~tag:3 (Scl.Flat.sub_view flat_base ~pos:1 ~len:flat_n);
          eng.send_slice ~dest:1 ~tag:3
            (Bigarray.Array1.init Bigarray.float64 Bigarray.c_layout slice_n value);
          eng.send_slice ~dest:1 ~tag:3 (empty ());
          None
        end
        else begin
          let e1 = eng.recv_slice ~src:0 ~tag:3 () in
          let (small : int) = eng.recv ~src:0 ~tag:3 () in
          let (boxed : int array) = eng.recv ~src:0 ~tag:3 () in
          let (flat : Scl.Flat.int1) = eng.recv ~src:0 ~tag:3 () in
          let slice = eng.recv_slice ~src:0 ~tag:3 () in
          let e2 = eng.recv_slice ~src:0 ~tag:3 () in
          let all n f = Seq.for_all f (Seq.init n Fun.id) in
          Some
            [
              ("empty slice", Bigarray.Array1.dim e1 = 0);
              ("small int", small = 42);
              ( "4 MB int array",
                Array.length boxed = boxed_n && all boxed_n (fun i -> boxed.(i) = entry i) );
              ( "2 MB flat view",
                Scl.Flat.length flat = flat_n
                && all flat_n (fun i -> Scl.Flat.get flat i = entry i) );
              ( "1 M-element slice",
                Bigarray.Array1.dim slice = slice_n && all slice_n (fun i -> slice.{i} = value i) );
              ("second empty slice", Bigarray.Array1.dim e2 = 0);
            ]
        end)
  in
  List.iter (fun (what, ok) -> Alcotest.(check bool) what true ok) v

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

(* A deadline far beyond one [select] wait (its [timeval] overflows)
   still waits for the message: rank 1 sends after 50 ms. *)
let far_deadline_delivery backend =
  let v, _ =
    run backend ~procs:2 (fun eng ->
        if eng.Engine.rank = 1 then begin
          eng.Engine.sleep 0.05;
          eng.Engine.send ~dest:0 ~tag:0 99;
          None
        end
        else Some (eng.Engine.recv ~timeout:1e300 ~src:1 ~tag:0 () : int))
  in
  Alcotest.(check int) "delivered" 99 v

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

(* [f] must raise [Fault.Deadlock] within a second of wall time: a rank
   that finished holding an unread message must not keep the run alive. *)
(* the Deadlock's report *)
let deadlock_within_a_second what f =
  let t0 = Unix.gettimeofday () in
  let msg = expect_deadlock what f in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) (Printf.sprintf "%s: Deadlock after %.3f s" what dt) true (dt < 1.0);
  msg

(* Rank 1 sends to rank 0, which returns at once; rank 1 then waits on
   rank 0, which finished holding rank 1's message. *)
let finished_peer_holds_message backend =
  ignore
    (deadlock_within_a_second "a peer finished holding my message" (fun () ->
         run backend ~procs:2 (fun eng ->
             if eng.Engine.rank = 1 then begin
               eng.Engine.send ~dest:0 ~tag:1 "unread";
               ignore (eng.Engine.recv ~src:0 ~tag:2 () : int)
             end;
             Some ())))

(* Rank 0 calls [bcast] where rank 1 calls [allreduce]: rank 0 returns
   holding rank 1's contribution, and rank 1 waits on it. *)
let bcast_against_allreduce backend =
  let msg =
    deadlock_within_a_second "bcast against allreduce" (fun () ->
        Spmd.run backend ~procs:2 (fun c ->
            if Comm.rank c = 0 then ignore (Comm.bcast c ~root:0 (Some 7) : int)
            else ignore (Comm.allreduce c ( + ) 1 : int);
            Some ()))
  in
  (* the report names the collective tag it is stuck on, not its number *)
  let names_a_collective =
    List.exists
      (fun op -> contains msg (op ^ "#"))
      [ "barrier"; "bcast"; "reduce"; "gather"; "scatter"; "alltoall"; "scan"; "split"; "slice" ]
  in
  Alcotest.(check bool) (Printf.sprintf "%S names an <op>#<seq>" msg) true names_a_collective;
  let numbers =
    String.split_on_char ' ' (String.map (fun ch -> if ch >= '0' && ch <= '9' then ch else ' ') msg)
    |> List.filter_map int_of_string_opt
  in
  Alcotest.(check bool)
    (Printf.sprintf "%S shows no raw Comm tag" msg)
    false
    (List.exists (fun n -> n >= Engine.tag_space) numbers)

(* A clean finish with an unconsumed message.  The receiver never enters
   the engine, so only the end-of-run check can find the orphan. *)
let undelivered_message backend =
  let msg =
    expect_deadlock "undelivered" (fun () ->
        run backend ~procs:2 (fun eng ->
            if eng.Engine.rank = 0 then begin
              eng.Engine.send ~dest:1 ~tag:9 "orphan";
              None
            end
            else Some ()))
  in
  Alcotest.(check string) "undelivered reported"
    "processor 1 finished with 1 undelivered message(s); first from p0 tag 9" msg

(* Rank 0 idles before it sends, so the orphan reaches a rank whose
   program has already returned: still an undelivered message, however
   late it arrives. *)
let late_orphan backend =
  let msg =
    expect_deadlock "late orphan" (fun () ->
        run backend ~procs:2 (fun eng ->
            if eng.Engine.rank = 0 then begin
              eng.Engine.sleep timeout;
              eng.Engine.send ~dest:1 ~tag:9 "late";
              None
            end
            else Some ()))
  in
  Alcotest.(check string) "late orphan reported"
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

(* --- collectives, equal to the simulator ----------------------------------- *)

(* The catalogue's collective battery under a chaos schedule: still the
   simulator's fault-free values. *)
let collectives_equal_sim ?chaos backend =
  let collectives = Prop.Engine_oracle.collectives in
  List.iter
    (fun procs ->
      let sim, _ = Spmd.run (Backend.sim ()) ~procs collectives in
      let v, _ = Spmd.run backend ?chaos ~procs collectives in
      Alcotest.(check bool) (Printf.sprintf "collectives agree at p=%d" procs) true (v = sim))
    [ 1; 2; 4 ]

(* After a split, ranks 0 and 1 make one parent bcast and then four
   child bcasts, ranks 2 and 3 the child calls first: a valid program,
   since each communicator sees one order on all its members.  The
   parent's bcast#3 and the child's fourth travel from rank 0 to rank 2
   on tags that differ only in their context; without one, FIFO hands
   the parent's value to the child's receive.  Every rank's values. *)
let split_context_isolation ?chaos backend =
  let per_rank, _ =
    Spmd.run backend ?chaos ~procs:4 (fun c ->
        let r = Comm.rank c in
        let child = Comm.split c ~color:(r mod 2) ~key:r in
        let parent () = Comm.bcast c ~root:0 (if r = 0 then Some 1 else None) in
        let children () =
          List.map
            (fun v -> Comm.bcast child ~root:0 (if Comm.rank child = 0 then Some v else None))
            [ 10; 20; 30; 40 ]
        in
        let got =
          if r < 2 then
            let p = parent () in
            (p, children ())
          else
            let cs = children () in
            (parent (), cs)
        in
        Comm.gather c ~root:0 got)
  in
  Array.iteri
    (fun r got ->
      Alcotest.(check (pair int (list int)))
        (Printf.sprintf "%s rank %d" (Backend.name backend) r)
        (1, [ 10; 20; 30; 40 ])
        got)
    per_rank

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

let slice_of_list xs : Scl.Flat.float1 =
  Bigarray.Array1.of_array Bigarray.float64 Bigarray.c_layout (Array.of_list xs)

let slice_to_list (s : Scl.Flat.float1) = List.init (Bigarray.Array1.dim s) (Bigarray.Array1.get s)

let slice_bits (s : Scl.Flat.float1) =
  List.init (Bigarray.Array1.dim s) (fun i -> Int64.bits_of_float (Bigarray.Array1.get s i))

(* The slice payloads, which every engine must deliver bit for bit: -0.0,
   a NaN carrying a payload and the infinities, beside values (1/3, 0.2,
   ...) with no exact float32 or short decimal form, so an encoding that
   drops precision, or canonicalises a NaN or the sign of a zero, shows.
   [whole] is under 64 KiB; [bulk]'s blocks are 64 KiB or more at up to
   four ranks, so on procs they cross through the arena. *)
let whole =
  [ -0.0; Int64.float_of_bits 0x7FF8_0000_DEAD_BEEFL; infinity; neg_infinity ]
  @ List.init 17 (fun i -> 1.0 /. float_of_int (i + 1))

let bulk =
  let w = Array.of_list whole in
  List.init ((4 * 8192) + 3) (fun i -> w.(i mod Array.length w))

let root_only r v = if r = 0 then Some v else None

(* The rooted collectives, boxed and slice tiers; root 0 gathers each
   rank's results. *)
let rooted_collectives c =
  let p = Comm.size c and me = Comm.rank c in
  let b = Comm.bcast c ~root:0 (root_only me "root-word") in
  let sc = Comm.scatter c ~root:0 (root_only me (Array.init p (fun j -> j * 7))) in
  let g = Comm.gather c ~root:0 (me * 11) in
  let round_trip xs =
    let mine = Comm.scatter_slice c ~root:0 (root_only me (slice_of_list xs)) in
    Option.map slice_bits (Comm.gather_slice c ~root:0 mine)
  in
  let back = round_trip whole in
  let back_bulk = round_trip bulk in
  Option.map Array.to_list
    (Comm.gather c ~root:0 (b, sc, Option.map Array.to_list g, back, back_bulk))

let rooted_collectives_equal_sim ?chaos backend =
  let bits = List.map Int64.bits_of_float in
  List.iter
    (fun procs ->
      let name what = Printf.sprintf "%s p=%d %s" (Backend.name backend) procs what in
      let sim, _ = Spmd.run (Backend.sim ()) ~procs rooted_collectives in
      let per_rank, _ = Spmd.run backend ?chaos ~procs rooted_collectives in
      Alcotest.(check bool) (name "equal to sim") true (per_rank = sim);
      List.iteri
        (fun r (b, sc, g, back, back_bulk) ->
          Alcotest.(check string) (name "bcast") "root-word" b;
          Alcotest.(check int) (name "scatter") (r * 7) sc;
          Alcotest.(check (option (list int)))
            (name "gather") (root_only r (List.init procs (fun j -> j * 11))) g;
          Alcotest.(check (option (list int64)))
            (name "gather_slice inverts scatter_slice") (root_only r (bits whole)) back;
          Alcotest.(check (option (list int64)))
            (name "bulk gather_slice inverts scatter_slice") (root_only r (bits bulk)) back_bulk)
        per_rank)
    [ 1; 2; 4 ]

(* Int-kind slices through [send_slice]/[recv_slice] and every slice
   collective, small and bulk: a bulk one (128 KiB) crosses procs through
   the shared arena.  Keys span the whole int range, [min_int], [max_int]
   and other negative ones included, so an encoding that narrows or drops
   the sign shows.  Each rank reports one check per operation. *)
let int_slice_n = 1 lsl 14

let int_slices c =
  let p = Comm.size c and me = Comm.rank c in
  let key r i =
    match i mod 16 with
    | 0 -> min_int
    | 1 -> max_int
    | _ -> ((i * 2_654_435_761) lxor (r lsl 45)) - (i lsl 40)
  in
  let ints n r : Scl.Flat.int1 = Scl.Flat.init Scl.Flat.int n (key r) in
  let holds ?(from = 0) n r (s : Scl.Flat.int1) =
    Scl.Flat.length s = n
    &&
    let ok = ref true in
    for i = 0 to n - 1 do
      if Scl.Flat.get s i <> key r (from + i) then ok := false
    done;
    !ok
  in
  let root_only v = if me = 0 then Some v else None in
  let p2p =
    p = 1
    || begin
         let next = (me + 1) mod p and prev = (me + p - 1) mod p in
         Comm.send_slice c ~dest:next (ints 3 me);
         Comm.send_slice c ~dest:next (ints int_slice_n me);
         let small = Comm.recv_slice c ~src:prev () in
         let bulk = Comm.recv_slice c ~src:prev () in
         holds 3 prev small && holds int_slice_n prev bulk
       end
  in
  (* uneven blocks: the first [total mod p] members hold one more *)
  let total = (p * int_slice_n) + 3 in
  let lo k = (k * (total / p)) + min k (total mod p) in
  let block k (s : Scl.Flat.int1) = holds ~from:(lo k) (lo (k + 1) - lo k) 77 s in
  let mine = Comm.scatter_slice c ~root:0 (root_only (ints total 77)) in
  let parts = Comm.gather_slices c ~root:0 mine in
  let back = Comm.gather_slice c ~root:0 mine in
  Option.map Array.to_list
    (Comm.gather c ~root:0
       [
         ("send_slice/recv_slice", p2p);
         ("scatter_slice", block me mine);
         ( "gather_slices",
           match parts with
           | None -> me <> 0
           | Some parts -> Array.length parts = p && Array.for_all Fun.id (Array.mapi block parts) );
         ("gather_slice", match back with None -> me <> 0 | Some all -> holds total 77 all);
       ])

let int_slices_equal_sim ?chaos backend =
  List.iter
    (fun procs ->
      let sim, _ = Spmd.run (Backend.sim ()) ~procs int_slices in
      let got, _ = Spmd.run backend ?chaos ~procs int_slices in
      List.iteri
        (fun r checks ->
          List.iter
            (fun (what, ok) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s p=%d rank %d %s" (Backend.name backend) procs r what)
                true ok)
            checks)
        got;
      Alcotest.(check bool) (Printf.sprintf "p=%d equal to sim" procs) true (got = sim))
    [ 1; 2; 4 ]

(* Slices shorter than the group: scattering [n < p] elements leaves
   some members an empty block, so zero- and one-element slices cross
   every engine's send path (on procs as ordinary marshal frames, being
   far under the arena's threshold) carrying values an encoding could
   bend: -0.0, a NaN with a payload, infinity, [min_int], [max_int].
   Each rank reports its float block's bits and its int block; the root
   also the lengths of [gather_slices]' parts and both gathered slices. *)
let short_floats = [| -0.0; Int64.float_of_bits 0x7FF8_0000_DEAD_BEEFL; infinity |]
let short_ints = [| min_int; max_int; -1 |]

let short_slices c =
  let me = Comm.rank c in
  let root_only v = if me = 0 then Some v else None in
  let one n =
    let floats = Scl.Flat.init Scl.Flat.float64 n (fun i -> short_floats.(i)) in
    let ints = Scl.Flat.init Scl.Flat.int n (fun i -> short_ints.(i)) in
    let fmine = Comm.scatter_slice c ~root:0 (root_only floats) in
    let imine = Comm.scatter_slice c ~root:0 (root_only ints) in
    let parts = Comm.gather_slices c ~root:0 fmine in
    let fback = Comm.gather_slice c ~root:0 fmine in
    let iback = Comm.gather_slice c ~root:0 imine in
    ( slice_bits fmine,
      Array.to_list (Scl.Flat.to_array imine),
      Option.map (Array.map Scl.Flat.length) parts,
      Option.map slice_bits fback,
      Option.map (fun s -> Array.to_list (Scl.Flat.to_array s)) iback )
  in
  let mine = List.map one [ 0; 1; 3 ] in
  Option.map Array.to_list (Comm.gather c ~root:0 mine)

let short_slices_equal_sim ?chaos backend =
  List.iter
    (fun procs ->
      let name what = Printf.sprintf "%s p=%d %s" (Backend.name backend) procs what in
      let sim, _ = Spmd.run (Backend.sim ()) ~procs short_slices in
      let got, _ = Spmd.run backend ?chaos ~procs short_slices in
      List.iteri
        (fun r per_n ->
          List.iter2
            (fun n (fbits, ints, lens, fback, iback) ->
              let lo k = (k * (n / procs)) + min k (n mod procs) in
              let here l = List.filteri (fun i _ -> i >= lo r && i < lo (r + 1)) l in
              let fall = List.init n (fun i -> Int64.bits_of_float short_floats.(i)) in
              let iall = Array.to_list (Array.sub short_ints 0 n) in
              let name what = name (Printf.sprintf "n=%d rank %d %s" n r what) in
              Alcotest.(check (list int64)) (name "float block") (here fall) fbits;
              Alcotest.(check (list int)) (name "int block") (here iall) ints;
              Alcotest.(check (option (array int)))
                (name "gather_slices lengths")
                (root_only r (Array.init procs (fun k -> lo (k + 1) - lo k)))
                lens;
              Alcotest.(check (option (list int64))) (name "float gather") (root_only r fall) fback;
              Alcotest.(check (option (list int))) (name "int gather") (root_only r iall) iback)
            [ 0; 1; 3 ] per_n)
        got;
      Alcotest.(check bool) (name "equal to sim") true (got = sim))
    [ 1; 2; 4 ]

(* Slice copy-vs-alias semantics, one expectation per engine: multicore
   hands the receiver the sender's storage, the simulator and procs a
   copy taken at the send.  After a barrier, rank 0 writes into the
   window it sent and rank 1 into the slice it received; after a second
   barrier each rank reports whether it sees the other's write — both do
   exactly when the engine aliases.  Checked for a small float slice and
   a bulk int one.  Then a received bulk copy must outlive 20 MB of later
   bulk traffic on its channel (procs reuses arena space once it is
   credited back). *)
let slice_copy_semantics ?chaos backend =
  let aliases = Backend.name backend = "multicore" in
  let bulk = 1 lsl 17 in
  let probe : type k e. Comm.t -> (k, e) Engine.slice -> mark0:k -> mark1:k -> bool =
   fun c s ~mark0 ~mark1 ->
    let me = Comm.rank c in
    if me = 0 then Comm.send_slice c ~dest:1 s;
    let r : (k, e) Engine.slice = if me = 1 then Comm.recv_slice c ~src:0 () else s in
    Comm.barrier c;
    if me = 0 then Bigarray.Array1.set s 0 mark0 else Bigarray.Array1.set r 1 mark1;
    Comm.barrier c;
    if me = 0 then Bigarray.Array1.get s 1 = mark1 else Bigarray.Array1.get r 0 = mark0
  in
  let v, _ =
    Spmd.run backend ?chaos ~procs:2 (fun c ->
        let me = Comm.rank c in
        let floats = probe c (Scl.Flat.make Scl.Flat.float64 4 0.5) ~mark0:(-1.0) ~mark1:(-2.0) in
        let ints = probe c (Scl.Flat.init Scl.Flat.int bulk Fun.id) ~mark0:(-1) ~mark1:(-2) in
        let outlives =
          if me = 0 then begin
            for k = 0 to 20 do
              Comm.send_slice c ~dest:1 (Scl.Flat.make Scl.Flat.int bulk k)
            done;
            true
          end
          else begin
            let first : Scl.Flat.int1 = Comm.recv_slice c ~src:0 () in
            for k = 1 to 20 do
              let s : Scl.Flat.int1 = Comm.recv_slice c ~src:0 () in
              if Scl.Flat.get s (bulk - 1) <> k then failwith "bulk slice out of order"
            done;
            let ok = ref true in
            for i = 0 to bulk - 1 do
              if Scl.Flat.get first i <> 0 then ok := false
            done;
            !ok
          end
        in
        Comm.gather c ~root:0 (floats, ints, outlives))
  in
  let name = Backend.name backend in
  Array.iteri
    (fun r (floats, ints, outlives) ->
      Alcotest.(check bool) (Printf.sprintf "%s rank %d float slice aliased" name r) aliases floats;
      Alcotest.(check bool) (Printf.sprintf "%s rank %d int slice aliased" name r) aliases ints;
      Alcotest.(check bool) (Printf.sprintf "%s rank %d copy outlives traffic" name r) true outlives)
    v

(* --- flat results ------------------------------------------------------------ *)

(* Rank [r]'s flat parts.  Int keys wrap around the whole int range,
   negative ones included, and float values have no short exact form, so
   an encoding that narrows, drops the sign or rounds shows. *)
let int_part ~len r : Scl.Flat.int1 =
  Scl.Flat.init Scl.Flat.int len (fun i -> (r + 1) * (i + 1) * 0x2545F4914F6CDD1D)

let float_part ~len r : Scl.Flat.float1 =
  Scl.Flat.init Scl.Flat.float64 len (fun i -> float_of_int ((r * 1000) + i) /. 3.0)

let float_bits a = Array.map Int64.bits_of_float a

(* The bulk ends of [Spmd.run_flat] ([Multicore.run_flat] shares them
   among its domains in ranges): an input at lengths 0 to 3 and 2^20 + 3
   copied in and laid out again, with rank 0 changing its copy in place;
   parts empty, of length 1, and straddling the 2^16-element blocks and
   the halves of their total; float64 bit patterns (NaN payloads, -0.0,
   subnormals) both ways; and p = 8, scattered and gathered back and,
   with rank 0 producing nothing, the lowest producing rank's block, on
   2 domains and on 1 on multicore.  The caller's array never changes. *)
let flat_ends (type s) ?chaos (backend : s Backend.t) =
  let name what = Printf.sprintf "%s %s" (Backend.name backend) what in
  let key i = (i + 1) * 0x2545F4914F6CDD1D in
  List.iter
    (fun n ->
      let a = Array.init n key in
      let v, _ =
        Spmd.run_flat backend ?chaos ~procs:2 ~kind:Scl.Flat.int ~input:a (fun c ->
            match Comm.input c Scl.Flat.int with
            | Some (s : Scl.Flat.int1) ->
                for i = 0 to Scl.Flat.length s - 1 do
                  Scl.Flat.set s i (Scl.Flat.get s i lxor 1)
                done;
                Some [| s |]
            | None -> None)
      in
      Alcotest.(check bool) (name (Printf.sprintf "input of %d, changed by rank 0" n)) true
        (v = Array.init n (fun i -> key i lxor 1));
      Alcotest.(check bool) (name (Printf.sprintf "caller's %d unchanged" n)) true (a = Array.init n key))
    [ 0; 1; 2; 3; (1 lsl 20) + 3 ];
  let lens = [ 0; 1; 65_535; 1; 0; 65_537; 3; 0; 1 ] in
  let v, _ =
    Spmd.run_flat backend ?chaos ~procs:2 ~kind:Scl.Flat.int (fun c ->
        if Comm.rank c = 0 then Some (Array.of_list (List.mapi (fun r len -> int_part ~len r) lens))
        else None)
  in
  Alcotest.(check bool) (name "empty, length-1 and straddling parts") true
    (v = Array.concat (List.mapi (fun r len -> Scl.Flat.to_array (int_part ~len r)) lens));
  let patterns =
    [|
      0x7FF8_0000_0000_0001L (* quiet NaN, payload 1 *);
      0xFFF8_DEAD_BEEF_0001L (* negative NaN, long payload *);
      0x7FF0_0000_0000_0001L (* signalling NaN *);
      0x8000_0000_0000_0000L (* -0.0 *);
      0x0000_0000_0000_0001L (* least subnormal *);
      0xFFF0_0000_0000_0000L (* -infinity *);
      0x3FF0_0000_0000_0001L;
    |]
  in
  let bits = Array.init ((2 * 65_536) + 5) (fun i -> patterns.(i mod Array.length patterns)) in
  let floats = Array.map Int64.float_of_bits bits in
  let v, _ =
    Spmd.run_flat backend ?chaos ~procs:2 ~kind:Scl.Flat.float64 ~input:floats (fun c ->
        Option.map (fun (s : Scl.Flat.float1) -> [| s |]) (Comm.input c Scl.Flat.float64))
  in
  Alcotest.(check bool) (name "float64 bits in and out") true (float_bits v = bits);
  Alcotest.(check bool) (name "caller's float64 bits unchanged") true (float_bits floats = bits);
  let n = 100_003 in
  let a = Array.init n key in
  let backends : s Backend.t list =
    match backend with
    | Backend.Multicore _ -> [ Backend.multicore ~domains:2 (); Backend.multicore ~domains:1 () ]
    | _ -> [ backend ]
  in
  List.iter
    (fun (b : s Backend.t) ->
      let on what =
        match b with
        | Backend.Multicore { domains = Some d } -> name (Printf.sprintf "p=8 %s, %d domains" what d)
        | _ -> name ("p=8 " ^ what)
      in
      let block c = Comm.scatter_slice c ~root:0 (Comm.input c Scl.Flat.int) in
      let v, _ =
        Spmd.run_flat b ?chaos ~procs:8 ~kind:Scl.Flat.int ~input:a (fun c ->
            let (mine : Scl.Flat.int1) = block c in
            Comm.gather_slices c ~root:0 mine)
      in
      Alcotest.(check bool) (on "scattered and gathered") true (v = a);
      let v, _ =
        Spmd.run_flat b ?chaos ~procs:8 ~kind:Scl.Flat.int ~input:a (fun c ->
            let (mine : Scl.Flat.int1) = block c in
            if Comm.rank c = 0 then None else Some [| mine |])
      in
      (* rank 1's block: [n / 8 + 1] elements from [n / 8 + 1], as 8 does not divide n *)
      Alcotest.(check bool) (on "lowest producing rank") true (v = Array.sub a ((n / 8) + 1) ((n / 8) + 1));
      Alcotest.(check bool) (on "caller's array unchanged") true (a = Array.init n key))
    backends

(* [Spmd.run_flat]: int and float64 parts gathered to rank 0, one of them
   empty; a total of zero, from empty parts and from no part; a 16 MB
   result, larger than a socket buffer, whose two parts straddle the
   procs stream's 64 KiB chunks; the lowest producing rank's parts
   when rank 0 produces none; and [flat_ends]'s inputs. *)
let flat_results ?chaos backend =
  let name what = Printf.sprintf "%s %s" (Backend.name backend) what in
  let gathered ~procs ~kind part =
    Spmd.run_flat backend ?chaos ~procs ~kind (fun c -> Comm.gather_slices c ~root:0 (part (Comm.rank c)))
  in
  let len r = if r = 2 then 0 else 5 + (3 * r) in
  let expected part = Array.concat (List.init 4 (fun r -> Scl.Flat.to_array (part ~len:(len r) r))) in
  let ints, _ = gathered ~procs:4 ~kind:Scl.Flat.int (fun r -> int_part ~len:(len r) r) in
  Alcotest.(check (array int)) (name "int parts in rank order") (expected int_part) ints;
  let floats, _ = gathered ~procs:4 ~kind:Scl.Flat.float64 (fun r -> float_part ~len:(len r) r) in
  Alcotest.(check (array int64)) (name "float64 parts bit for bit")
    (float_bits (expected float_part)) (float_bits floats);
  let empty, _ = gathered ~procs:3 ~kind:Scl.Flat.float64 (fun r -> float_part ~len:0 r) in
  Alcotest.(check int) (name "empty parts") 0 (Array.length empty);
  let none, _ =
    Spmd.run_flat backend ?chaos ~procs:2 ~kind:Scl.Flat.int (fun c ->
        if Comm.rank c = 0 then Some [||] else None)
  in
  Alcotest.(check int) (name "no parts") 0 (Array.length none);
  let big = 1 lsl 20 in
  let v, _ =
    Spmd.run_flat backend ?chaos ~procs:2 ~kind:Scl.Flat.int (fun c ->
        if Comm.rank c = 0 then Some [| int_part ~len:(big + 3) 0; int_part ~len:(big - 3) 1 |]
        else None)
  in
  let whole i = if i < big + 3 then (i + 1) * 0x2545F4914F6CDD1D else 2 * (i - big - 2) * 0x2545F4914F6CDD1D in
  Alcotest.(check int) (name "16 MB length") (2 * big) (Array.length v);
  Alcotest.(check bool) (name "16 MB contents") true
    (Seq.for_all (fun i -> v.(i) = whole i) (Seq.init (2 * big) Fun.id));
  let lowest, _ =
    Spmd.run_flat backend ?chaos ~procs:4 ~kind:Scl.Flat.int (fun c ->
        let r = Comm.rank c in
        if r = 0 then None else Some [| int_part ~len:r r |])
  in
  Alcotest.(check (array int)) (name "lowest producing rank") (Scl.Flat.to_array (int_part ~len:1 1))
    lowest;
  flat_ends ?chaos backend

(* A kind mismatch is [Invalid_argument] on every engine, and a rank's
   exception keeps its precedence over a flat result: the root cause of
   a chain of waits, and an error beside a rank that produced. *)
let flat_result_errors ?chaos backend =
  let invalid what f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  (* an int slice received at a float64 annotation is still an int slice *)
  invalid "part of another kind" (fun () ->
      Spmd.run_flat backend ?chaos ~procs:2 ~kind:Scl.Flat.float64 (fun c ->
          if Comm.rank c = 1 then begin
            Comm.send_slice c ~dest:0 (int_part ~len:4 1);
            None
          end
          else Some [| (Comm.recv_slice c ~src:1 () : Scl.Flat.float1) |]));
  invalid "kind neither float64 nor int" (fun () ->
      Spmd.run_flat backend ?chaos ~procs:1 ~kind:Bigarray.float32 (fun _ ->
          Some [| Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout 2 |]));
  let boom what program =
    match Spmd.run_flat backend ?chaos ~procs:3 ~kind:Scl.Flat.int program with
    | _ -> Alcotest.failf "%s: expected Failure" what
    | exception Failure msg -> Alcotest.(check string) what "boom" msg
  in
  boom "root cause of a chain" (fun c ->
      let r = Comm.rank c in
      if r = 2 then failwith "boom";
      ignore ((Comm.engine c).Engine.recv ~src:(r + 1) ~tag:0 () : int);
      Some [| int_part ~len:3 r |]);
  boom "error beside a result" (fun c ->
      match Comm.rank c with
      | 0 -> Some [| int_part ~len:(1 lsl 16) 0 |]
      | 1 -> failwith "boom"
      | r -> Some [| int_part ~len:3 r |])

(* Rank 0 returns its parts while rank 1 waits on it forever: the run
   must end in [Deadlock] within a second, not wait for rank 1 to finish
   before it lays out the result. *)
let flat_result_deadlock ?chaos backend =
  ignore
    (deadlock_within_a_second "rank 0 produced, rank 1 waits forever" (fun () ->
         Spmd.run_flat backend ?chaos ~procs:2 ~kind:Scl.Flat.int ~input:[| 1; 2; 3 |] (fun c ->
             if Comm.rank c = 1 then ignore ((Comm.engine c).Engine.recv ~src:0 ~tag:0 () : int);
             Some [| int_part ~len:3 (Comm.rank c) |])))

(* [Spmd.run_flat ~input]: rank 0 alone gets the input, in a buffer of
   its own (on procs, more than one stream chunk of it), so negating it
   in place leaves the caller's array as it was; asking for another kind
   is [Invalid_argument]. *)
let flat_input backend =
  let n = 20_000 in
  let a = Array.init n (fun i -> float_of_int i /. 7.0) in
  let v, _ =
    Spmd.run_flat backend ~procs:2 ~kind:Scl.Flat.float64 ~input:a (fun c ->
        let mine = Comm.input c Scl.Flat.float64 in
        match (mine, Comm.gather c ~root:0 (Comm.rank c = 0 || Option.is_none mine)) with
        | Some (s : Scl.Flat.float1), Some alone when Array.for_all Fun.id alone ->
            for i = 0 to Scl.Flat.length s - 1 do
              Scl.Flat.set s i (-.Scl.Flat.get s i)
            done;
            Some [| s |]
        | _ -> Some [||])
  in
  Alcotest.(check (array int64)) "rank 0 alone, its own copy"
    (float_bits (Array.init n (fun i -> -.(float_of_int i /. 7.0))))
    (float_bits v);
  Alcotest.(check (array int64)) "the caller's array unchanged"
    (float_bits (Array.init n (fun i -> float_of_int i /. 7.0)))
    (float_bits a);
  match
    Spmd.run_flat backend ~procs:1 ~kind:Scl.Flat.float64 ~input:a (fun c ->
        ignore (Comm.input c Scl.Flat.int);
        Some [||])
  with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* --- the cross-engine catalogue ------------------------------------------- *)

(* Runs one family of [Prop.Engine_oracle] at each of [seeds] (42 when
   omitted) on [backend]: the cases whose program is in [only] (every one
   when omitted) and not in [except].  A name the catalogue lacks fails,
   as does every divergent case, by name. *)
let oracle ?(seeds = [ 42 ]) ?only ?(except = []) family backend =
  let cases = List.concat_map (fun seed -> family ~seed backend) seeds in
  let program = Prop.Engine_oracle.program in
  List.iter
    (fun p ->
      if not (List.exists (fun c -> program c = p) cases) then
        Alcotest.failf "the catalogue has no %s case" p)
    (Option.value only ~default:[] @ except);
  let wanted p = Option.fold ~none:true ~some:(List.mem p) only && not (List.mem p except) in
  match Prop.Engine_oracle.failures (List.filter (fun c -> wanted (program c)) cases) with
  | [] -> ()
  | bad -> Alcotest.fail (String.concat "\n" bad)

(* The case seeds whose delay schedules the engine suites replay. *)
let delay_seeds = [ 1; 7; 42 ]

(* Every equivalence program no group of [Prop.Engine_oracle] names: the
   ten algorithm programs, the generated pipeline, and any program added
   to the catalogue later. *)
let algorithms backend =
  let module O = Prop.Engine_oracle in
  oracle ~except:(("collectives" :: O.sorts) @ O.matrix @ O.solvers) O.equivalence backend

(* --- the dynamic farm ---------------------------------------------------- *)

(* recv_any at the master; results are indexed, so a nondeterministic
   interleaving does not show.  Returns each run's stats. *)
let dynamic_farm ?chaos backend =
  List.map
    (fun procs ->
      let spec = Algorithms.Farm_sim.skewed_spec ~njobs:40 ~skew:8 in
      let got, stats = Algorithms.Farm_sim.dynamic backend ?chaos ~procs spec in
      Alcotest.(check bool) (Printf.sprintf "all jobs done once at p=%d" procs) true
        (got = Prop.Engine_oracle.farm_expected 40);
      stats)
    [ 2; 4 ]

(* --- the contract group, the same on every engine --------------------------- *)

let contract_group backend =
  ( "contract",
    [
      Alcotest.test_case "argument checks" `Quick (fun () -> argument_checks backend);
      Alcotest.test_case "per-(src,tag) FIFO under interleaving" `Quick (fun () ->
          fifo_under_interleaving backend);
      Alcotest.test_case "error chain raises root cause" `Quick (fun () ->
          rank_error_chain backend);
      Alcotest.test_case "scalar pipeline input" `Quick (fun () -> spmd_exec_scalar_input backend);
      Alcotest.test_case "frame boundaries on one channel" `Quick (fun () ->
          frame_boundaries backend);
      Alcotest.test_case "int slices + collectives" `Quick (fun () -> int_slices_equal_sim backend);
      Alcotest.test_case "slice copy vs alias" `Quick (fun () -> slice_copy_semantics backend);
      Alcotest.test_case "flat results" `Quick (fun () -> flat_results backend);
      Alcotest.test_case "flat result errors" `Quick (fun () -> flat_result_errors backend);
      Alcotest.test_case "far deadline still delivers" `Quick (fun () -> far_deadline_delivery backend);
      Alcotest.test_case "flat input reaches rank 0" `Quick (fun () -> flat_input backend);
      Alcotest.test_case "finished peer holding my message" `Quick (fun () ->
          finished_peer_holds_message backend);
      Alcotest.test_case "bcast against allreduce" `Quick (fun () -> bcast_against_allreduce backend);
      Alcotest.test_case "split context isolation" `Quick (fun () -> split_context_isolation backend);
      Alcotest.test_case "flat result deadlock" `Quick (fun () -> flat_result_deadlock backend);
      Alcotest.test_case "late orphan to a finished rank" `Quick (fun () -> late_orphan backend);
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
    ("split context isolation", fun () -> split_context_isolation ~chaos backend);
    ("dynamic farm", fun () -> ignore (dynamic_farm ~chaos backend));
    ("int slices + collectives", fun () -> int_slices_equal_sim ~chaos backend);
    ("slice copy vs alias", fun () -> slice_copy_semantics ~chaos backend);
    ("flat results", fun () -> flat_results ~chaos backend);
    ("flat result errors", fun () -> flat_result_errors ~chaos backend);
    ("short slices equal sim", fun () -> short_slices_equal_sim ~chaos backend);
    ("flat result deadlock", fun () -> flat_result_deadlock ~chaos backend);
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
