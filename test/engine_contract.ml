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
      ( Printf.sprintf "%s.send_slice: slice kind must be float64 or int" e,
        fun eng ->
          eng.Engine.send_slice ~dest:1 ~tag:0
            (Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout 1) );
      (negative "work" "duration", fun eng -> eng.Engine.work (-1.0));
      (negative "sleep" "duration", fun eng -> eng.Engine.sleep (-1.0));
    ];
  List.iter
    (fun procs ->
      let expected = e ^ ".run_each: procs must be positive" in
      Alcotest.check_raises (Printf.sprintf "procs:%d" procs) (Invalid_argument expected) (fun () ->
          ignore (run backend ~procs (fun _ -> Some ()))))
    [ 0; -1 ]

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

let slice_of_list xs : Scl.Flat.float1 =
  Bigarray.Array1.of_array Bigarray.float64 Bigarray.c_layout (Array.of_list xs)

let slice_to_list (s : Scl.Flat.float1) = List.init (Bigarray.Array1.dim s) (Bigarray.Array1.get s)

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

(* Int-kind slices through [send_slice]/[recv_slice] and every slice
   collective, small and bulk: a bulk one (128 KiB) crosses procs through
   the shared arena.  Keys span the whole int range, negative ones
   included, so an encoding that narrows or drops the sign shows.  Each
   rank reports one check per operation. *)
let int_slice_n = 1 lsl 14

let int_slices c =
  let p = Comm.size c and me = Comm.rank c in
  let key r i = ((i * 2_654_435_761) lxor (r lsl 45)) - (i lsl 40) in
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
  let bsl = Comm.bcast_slice c ~root:0 (root_only (ints int_slice_n 99)) in
  let mine = Comm.scatter_slice c ~root:0 (root_only (ints total 77)) in
  let parts = Comm.gather_slices c ~root:0 mine in
  let back = Comm.gather_slice c ~root:0 mine in
  let agl = Comm.allgather_slice c (ints (me + 1) me) in
  let agl_ok =
    let pos = ref 0 and ok = ref true in
    for r = 0 to p - 1 do
      if not (holds (r + 1) r (Scl.Flat.sub_view agl ~pos:!pos ~len:(r + 1))) then ok := false;
      pos := !pos + r + 1
    done;
    !ok && !pos = Scl.Flat.length agl
  in
  Option.map Array.to_list
    (Comm.gather c ~root:0
       [
         ("send_slice/recv_slice", p2p);
         ("bcast_slice", holds int_slice_n 99 bsl);
         ("scatter_slice", block me mine);
         ( "gather_slices",
           match parts with
           | None -> me <> 0
           | Some parts -> Array.length parts = p && Array.for_all Fun.id (Array.mapi block parts) );
         ("gather_slice", match back with None -> me <> 0 | Some all -> holds total 77 all);
         ("allgather_slice", agl_ok);
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

(* Both tiers, boxed and flat-int, equal the boxed program on the
   simulator; the flat tier's blocks cross the engine as [Scl.Flat.Int]
   arrays, and its root must leave the caller's array as it was. *)
let hyperquicksort_equal_sim backend =
  let rng = Runtime.Xoshiro.of_seed 1995 in
  let data = Array.init 800 (fun _ -> Runtime.Xoshiro.int rng 10_000) in
  let original = Array.copy data in
  let reference = Array.copy data in
  Array.sort compare reference;
  List.iter
    (fun procs ->
      let sim, _ = Algorithms.Hyperquicksort.sort (Backend.sim ()) ~procs data in
      let v, _ = Algorithms.Hyperquicksort.sort backend ~procs data in
      let flat, _ = Algorithms.Hyperquicksort.sort_flatint backend ~procs data in
      Alcotest.(check bool) (Printf.sprintf "sim output sorted at p=%d" procs) true (sim = reference);
      Alcotest.(check bool) (Printf.sprintf "output equal to sim at p=%d" procs) true (v = sim);
      Alcotest.(check bool) (Printf.sprintf "flat-int output equal to sim at p=%d" procs) true
        (flat = sim);
      Alcotest.(check bool) (Printf.sprintf "input untouched at p=%d" procs) true (data = original))
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
      Alcotest.test_case "per-(src,tag) FIFO under interleaving" `Quick (fun () ->
          fifo_under_interleaving backend);
      Alcotest.test_case "error chain raises root cause" `Quick (fun () ->
          rank_error_chain backend);
      Alcotest.test_case "scalar pipeline input" `Quick (fun () -> spmd_exec_scalar_input backend);
      Alcotest.test_case "frame boundaries on one channel" `Quick (fun () ->
          frame_boundaries backend);
      Alcotest.test_case "int slices + collectives" `Quick (fun () -> int_slices_equal_sim backend);
      Alcotest.test_case "slice copy vs alias" `Quick (fun () -> slice_copy_semantics backend);
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
    ("int slices + collectives", fun () -> int_slices_equal_sim ~chaos backend);
    ("slice copy vs alias", fun () -> slice_copy_semantics ~chaos backend);
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
