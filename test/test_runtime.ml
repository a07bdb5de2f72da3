(* Tests for the multicore substrate: backoff, PRNG, deque, queue, pool,
   barrier. *)

open Runtime

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* --- Xoshiro ------------------------------------------------------------ *)

let test_xoshiro_deterministic () =
  let a = Xoshiro.of_seed 42 and b = Xoshiro.of_seed 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Xoshiro.next_int64 a) (Xoshiro.next_int64 b)
  done

let test_xoshiro_seed_sensitivity () =
  let a = Xoshiro.of_seed 1 and b = Xoshiro.of_seed 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Xoshiro.next_int64 a = Xoshiro.next_int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_xoshiro_copy () =
  let a = Xoshiro.of_seed 7 in
  ignore (Xoshiro.next_int64 a);
  let b = Xoshiro.copy a in
  Alcotest.(check int64) "copy continues identically" (Xoshiro.next_int64 a) (Xoshiro.next_int64 b)

let test_xoshiro_split_independent () =
  let parent = Xoshiro.of_seed 9 in
  let child = Xoshiro.split parent in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Xoshiro.next_int64 parent = Xoshiro.next_int64 child then incr same
  done;
  Alcotest.(check bool) "split stream differs" true (!same < 4)

let test_xoshiro_bounds () =
  let r = Xoshiro.of_seed 3 in
  for _ = 1 to 10_000 do
    let v = Xoshiro.int r 17 in
    if v < 0 || v >= 17 then Alcotest.fail "int out of bounds";
    let f = Xoshiro.float r 2.5 in
    if f < 0.0 || f >= 2.5 then Alcotest.fail "float out of bounds"
  done

let test_xoshiro_int_rejects () =
  Alcotest.check_raises "bound 0" (Invalid_argument "Xoshiro.int: bound must be positive") (fun () ->
      ignore (Xoshiro.int (Xoshiro.of_seed 0) 0))

let test_xoshiro_nth_child () =
  (* nth_child must agree with n+1 manual splits, and must not mutate its
     argument (replays depend on both). *)
  let manual = Xoshiro.of_seed 42 in
  let expected =
    let c = ref (Xoshiro.split manual) in
    for _ = 1 to 5 do
      c := Xoshiro.split manual
    done;
    !c
  in
  let master = Xoshiro.of_seed 42 in
  let child = Xoshiro.nth_child master 5 in
  Alcotest.(check int64) "same as 6 splits" (Xoshiro.next_int64 expected) (Xoshiro.next_int64 child);
  let untouched = Xoshiro.of_seed 42 in
  ignore (Xoshiro.nth_child master 3);
  Alcotest.(check int64) "master not mutated" (Xoshiro.next_int64 untouched)
    (Xoshiro.next_int64 master);
  Alcotest.check_raises "negative index" (Invalid_argument "Xoshiro.nth_child: negative index")
    (fun () -> ignore (Xoshiro.nth_child master (-1)))

let test_xoshiro_uniformity () =
  (* Chi-square-ish sanity: 10 buckets, 100k draws, each bucket within 10%. *)
  let r = Xoshiro.of_seed 123 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Xoshiro.int r 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      if abs (c - (n / 10)) > n / 100 then
        Alcotest.failf "bucket %d count %d too far from %d" i c (n / 10))
    buckets

(* --- Ws_deque ------------------------------------------------------------ *)

let test_deque_lifo () =
  let d = Ws_deque.create () in
  for i = 1 to 100 do
    Ws_deque.push d i
  done;
  for i = 100 downto 1 do
    Alcotest.(check int) "pop order" i (Ws_deque.pop d)
  done;
  Alcotest.check_raises "empty" Ws_deque.Empty (fun () -> ignore (Ws_deque.pop d))

let test_deque_steal_fifo () =
  let d = Ws_deque.create () in
  for i = 1 to 50 do
    Ws_deque.push d i
  done;
  for i = 1 to 50 do
    Alcotest.(check int) "steal order" i (Ws_deque.steal d)
  done;
  Alcotest.check_raises "empty" Ws_deque.Empty (fun () -> ignore (Ws_deque.steal d))

let test_deque_grow () =
  let d = Ws_deque.create () in
  let n = 10_000 in
  for i = 0 to n - 1 do
    Ws_deque.push d i
  done;
  Alcotest.(check int) "size" n (Ws_deque.size d);
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Ws_deque.pop d
  done;
  Alcotest.(check int) "all elements survive growth" (n * (n - 1) / 2) !sum

let test_deque_mixed () =
  let d = Ws_deque.create () in
  Ws_deque.push d 1;
  Ws_deque.push d 2;
  Ws_deque.push d 3;
  Alcotest.(check int) "steal oldest" 1 (Ws_deque.steal d);
  Alcotest.(check int) "pop newest" 3 (Ws_deque.pop d);
  Alcotest.(check int) "last" 2 (Ws_deque.pop d);
  Alcotest.(check bool) "empty" true (Ws_deque.is_empty d)

let test_deque_concurrent_steal () =
  (* One owner pushes/pops, several thieves steal; every element must be
     consumed exactly once. *)
  let d = Ws_deque.create () in
  let n = 20_000 and nthieves = 3 in
  let stolen = Array.init nthieves (fun _ -> Atomic.make 0) in
  let popped = Atomic.make 0 in
  let produced = Atomic.make false in
  let thief k () =
    let my = stolen.(k) in
    let rec loop () =
      if (not (Atomic.get produced)) || not (Ws_deque.is_empty d) then begin
        (match Ws_deque.steal d with
        | v -> Atomic.set my (Atomic.get my + v)
        | exception Ws_deque.Empty -> Domain.cpu_relax ());
        loop ()
      end
    in
    loop ()
  in
  let thieves = Array.init nthieves (fun k -> Domain.spawn (thief k)) in
  for i = 1 to n do
    Ws_deque.push d i;
    if i mod 3 = 0 then
      match Ws_deque.pop d with
      | v -> Atomic.set popped (Atomic.get popped + v)
      | exception Ws_deque.Empty -> ()
  done;
  (* Drain what's left as the owner. *)
  let rec drain () =
    match Ws_deque.pop d with
    | v ->
        Atomic.set popped (Atomic.get popped + v);
        drain ()
    | exception Ws_deque.Empty -> if not (Ws_deque.is_empty d) then drain ()
  in
  drain ();
  Atomic.set produced true;
  Array.iter Domain.join thieves;
  let total =
    Atomic.get popped + Array.fold_left (fun acc a -> acc + Atomic.get a) 0 stolen
  in
  Alcotest.(check int) "every element consumed exactly once" (n * (n + 1) / 2) total

(* --- Mpmc_queue ---------------------------------------------------------- *)

let test_queue_fifo () =
  let q = Mpmc_queue.create () in
  for i = 1 to 10 do
    Mpmc_queue.push q i
  done;
  for i = 1 to 10 do
    Alcotest.(check (option int)) "fifo" (Some i) (Mpmc_queue.try_pop q)
  done;
  Alcotest.(check bool) "empty" true (Mpmc_queue.is_empty q)

let test_queue_try_pop () =
  let q = Mpmc_queue.create () in
  Alcotest.(check (option int)) "empty" None (Mpmc_queue.try_pop q);
  Mpmc_queue.push q 5;
  Alcotest.(check (option int)) "value" (Some 5) (Mpmc_queue.try_pop q)

(* Pool's use of the queue: pushes and polls interleave, and [is_empty]
   decides whether a worker may park.  Any sequence of pushes ([Some v])
   and polls ([None]) must agree with [Stdlib.Queue] at every step. *)
let prop_queue_matches_model =
  qtest "interleaved push/try_pop = Queue model"
    QCheck.(list (option small_int))
    (fun ops ->
      let q = Mpmc_queue.create () and model = Queue.create () in
      List.for_all
        (fun op ->
          let same =
            match op with
            | Some v ->
                Mpmc_queue.push q v;
                Queue.push v model;
                true
            | None -> Mpmc_queue.try_pop q = Queue.take_opt model
          in
          same && Mpmc_queue.is_empty q = Queue.is_empty model)
        ops)

(* --- Pool ----------------------------------------------------------------- *)

let with_pool ?(num_domains = 3) f =
  let pool = Pool.create ~num_domains () in
  Fun.protect ~finally:(fun () -> Pool.teardown pool) (fun () -> f pool)

let test_pool_async_await () =
  with_pool (fun pool ->
      let p = Pool.async pool (fun () -> 21 * 2) in
      Alcotest.(check int) "await" 42 (Pool.await pool p))

let test_pool_run () =
  with_pool (fun pool -> Alcotest.(check string) "run" "ok" (Pool.run pool (fun () -> "ok")))

let test_pool_exception () =
  with_pool (fun pool ->
      let p = Pool.async pool (fun () -> failwith "boom") in
      Alcotest.check_raises "propagates" (Failure "boom") (fun () -> ignore (Pool.await pool p)))

let test_pool_parallel_for_sum () =
  with_pool (fun pool ->
      let n = 100_000 in
      let acc = Array.make n 0 in
      Pool.parallel_for pool ~lo:0 ~hi:n (fun i -> acc.(i) <- i);
      let total = Array.fold_left ( + ) 0 acc in
      Alcotest.(check int) "sum" (n * (n - 1) / 2) total)

let test_pool_parallel_for_empty () =
  with_pool (fun pool ->
      let hit = ref false in
      Pool.parallel_for pool ~lo:5 ~hi:5 (fun _ -> hit := true);
      Pool.parallel_for pool ~lo:5 ~hi:4 (fun _ -> hit := true);
      Alcotest.(check bool) "no iterations" false !hit)

let test_pool_parallel_for_reduce () =
  with_pool (fun pool ->
      let n = 50_000 in
      let total =
        Pool.parallel_for_reduce pool ~lo:1 ~hi:(n + 1) ~body:Fun.id ~combine:( + ) ~init:0
      in
      Alcotest.(check int) "reduce" (n * (n + 1) / 2) total)

let test_pool_nested_fork_join () =
  with_pool (fun pool ->
      let rec fib n =
        if n < 2 then n
        else begin
          let a = Pool.async pool (fun () -> fib (n - 1)) in
          let b = fib (n - 2) in
          Pool.await pool a + b
        end
      in
      Alcotest.(check int) "fib 18" 2584 (fib 18))

let test_pool_map_array () =
  with_pool (fun pool ->
      let a = Array.init 1_000 Fun.id in
      let b = Pool.map_array pool (fun x -> x * x) a in
      Alcotest.(check bool) "squares" true (Array.for_all2 (fun x y -> y = x * x) a b))

let test_pool_init_array () =
  with_pool (fun pool ->
      let a = Pool.init_array pool 777 (fun i -> i * 3) in
      Alcotest.(check int) "len" 777 (Array.length a);
      Alcotest.(check bool) "vals" true (Array.for_all2 ( = ) a (Array.init 777 (fun i -> i * 3))))

let test_pool_zero_workers () =
  (* Degenerate pool: everything runs in the caller's helping loop. *)
  with_pool ~num_domains:0 (fun pool ->
      let total =
        Pool.parallel_for_reduce pool ~lo:0 ~hi:1_000 ~body:Fun.id ~combine:( + ) ~init:0
      in
      Alcotest.(check int) "works with 0 workers" (999 * 1000 / 2) total)

let test_pool_after_teardown () =
  let pool = Pool.create ~num_domains:1 () in
  Pool.teardown pool;
  Pool.teardown pool (* idempotent *);
  Alcotest.check_raises "async rejected" (Invalid_argument "Pool.async: pool is shut down")
    (fun () -> ignore (Pool.async pool (fun () -> ())))

let test_pool_spawn_counts_exceptions () =
  (* A bare (promise-less) task that raises must not kill its worker, and
     the swallowed exception must show up in stats rather than vanish. *)
  with_pool ~num_domains:2 (fun pool ->
      let ran = Atomic.make 0 in
      for i = 0 to 15 do
        Pool.spawn pool (fun () ->
            Atomic.incr ran;
            if i mod 2 = 0 then failwith "task bug")
      done;
      let deadline = Unix.gettimeofday () +. 10.0 in
      while Atomic.get ran < 16 && Unix.gettimeofday () < deadline do
        Domain.cpu_relax ()
      done;
      Alcotest.(check int) "all tasks ran" 16 (Atomic.get ran);
      (* the raising half is counted once the workers are done with them;
         the non-atomic window between [Atomic.incr ran] and the counter
         update is closed by polling the stat itself *)
      let deadline = Unix.gettimeofday () +. 10.0 in
      while (Pool.stats pool).Pool.task_exceptions < 8 && Unix.gettimeofday () < deadline do
        Domain.cpu_relax ()
      done;
      Alcotest.(check int) "raising tasks counted" 8 (Pool.stats pool).Pool.task_exceptions;
      (* workers survived: the pool still runs work *)
      Alcotest.(check int) "pool still alive" 7 (Pool.run pool (fun () -> 3 + 4)))

let test_pool_actually_parallel () =
  (* With 3 workers + helping caller, 4 tasks spinning on a shared countdown
     can only finish if they run concurrently. *)
  with_pool ~num_domains:3 (fun pool ->
      let counter = Atomic.make 4 in
      let task () =
        Atomic.decr counter;
        let deadline = Unix.gettimeofday () +. 10.0 in
        while Atomic.get counter > 0 && Unix.gettimeofday () < deadline do
          Domain.cpu_relax ()
        done;
        Atomic.get counter = 0
      in
      let ps = List.init 4 (fun _ -> Pool.async pool task) in
      let ok = List.for_all (fun p -> Pool.await pool p) ps in
      Alcotest.(check bool) "all tasks overlapped" true ok)

let prop_parallel_reduce_matches_seq =
  qtest ~count:50 "parallel_for_reduce = sequential fold"
    QCheck.(list small_int)
    (fun xs ->
      let a = Array.of_list xs in
      with_pool ~num_domains:2 (fun pool ->
          let par =
            Pool.parallel_for_reduce pool ~lo:0 ~hi:(Array.length a)
              ~body:(fun i -> a.(i))
              ~combine:( + ) ~init:0
          in
          par = Array.fold_left ( + ) 0 a))

(* --- Barrier -------------------------------------------------------------- *)

let test_barrier_phases () =
  let n = 4 in
  let b = Barrier.create n in
  let phases = 50 in
  let log = Array.make n 0 in
  let worker i () =
    for _ = 1 to phases do
      log.(i) <- log.(i) + 1;
      Barrier.await b;
      (* After the barrier, everyone must have incremented this phase. *)
      let mine = log.(i) in
      Array.iteri (fun _ v -> if v < mine - 1 then failwith "barrier violated") log;
      Barrier.await b
    done
  in
  let ds = Array.init (n - 1) (fun i -> Domain.spawn (worker (i + 1))) in
  worker 0 ();
  Array.iter Domain.join ds;
  Array.iter (fun v -> Alcotest.(check int) "phases" phases v) log

(* A released barrier lets its blocked parties go, and every later await
   returns at once, though the party count is never reached. *)
let test_barrier_release () =
  let b = Barrier.create 3 in
  let d = Domain.spawn (fun () -> Barrier.await b) in
  Barrier.release b;
  Domain.join d;
  Barrier.await b;
  Barrier.await b

let test_barrier_invalid () =
  Alcotest.check_raises "zero parties" (Invalid_argument "Barrier.create: parties must be positive")
    (fun () -> ignore (Barrier.create 0))

(* --- additional pool coverage ---------------------------------------------- *)

let test_pool_await_from_another_domain () =
  (* A promise created inside the pool can be awaited from a foreign
     domain: it helps via the injection/steal paths. *)
  with_pool (fun pool ->
      let p = Pool.async pool (fun () -> 123) in
      let d = Domain.spawn (fun () -> Pool.await pool p) in
      Alcotest.(check int) "foreign await" 123 (Domain.join d))

let test_pool_concurrent_submitters () =
  (* Several domains submit work to the same pool concurrently. *)
  with_pool ~num_domains:2 (fun pool ->
      let submitters =
        List.init 4 (fun k ->
            Domain.spawn (fun () ->
                Pool.parallel_for_reduce pool ~lo:0 ~hi:1_000
                  ~body:(fun i -> i + k)
                  ~combine:( + ) ~init:0))
      in
      let results = List.map Domain.join submitters in
      List.iteri
        (fun k total ->
          Alcotest.(check int) (Printf.sprintf "submitter %d" k) ((999 * 1000 / 2) + (1000 * k)) total)
        results)

let test_pool_deep_nesting () =
  (* Deeply nested async/await must not deadlock even with 1 worker. *)
  with_pool ~num_domains:1 (fun pool ->
      let rec nest depth = if depth = 0 then 1 else 1 + Pool.await pool (Pool.async pool (fun () -> nest (depth - 1))) in
      Alcotest.(check int) "depth 200" 201 (nest 200))

let test_pool_many_small_tasks () =
  with_pool (fun pool ->
      let n = 10_000 in
      let counter = Atomic.make 0 in
      let ps = List.init n (fun _ -> Pool.async pool (fun () -> Atomic.incr counter)) in
      List.iter (fun p -> Pool.await pool p) ps;
      Alcotest.(check int) "all ran exactly once" n (Atomic.get counter))

let test_pool_parallel_for_grain_one () =
  with_pool (fun pool ->
      let hits = Array.make 64 0 in
      Pool.parallel_for ~grain:1 pool ~lo:0 ~hi:64 (fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check bool) "each index exactly once" true (Array.for_all (( = ) 1) hits))

let test_pool_grain_for_bytes () =
  (* pins the bytes-aware chunking on a 2-worker pool: the 2 KiB floor is
     256 elements at 8 bytes each, so it wins over the balance term
     (ceil (1000/8) = 125) at n=1000, collapses n=100 to a single task,
     and is invisible for large n where the balance term dominates *)
  with_pool ~num_domains:2 (fun pool ->
      let gb = Pool.grain_for_bytes pool ~elem_bytes:8 in
      Alcotest.(check int) "n=0" 1 (gb 0);
      Alcotest.(check int) "byte floor beats balance at n=1000" 256 (gb 1000);
      Alcotest.(check int) "boxed grain would have chunked finer" 125 (Pool.grain_for pool 1000);
      Alcotest.(check int) "small array runs as one task" 100 (gb 100);
      Alcotest.(check int) "large n: balance term identical to grain_for"
        (Pool.grain_for pool 100_000)
        (gb 100_000);
      Alcotest.(check int) "1-byte elements push the floor to 2048 elems" 1000
        (Pool.grain_for_bytes pool ~elem_bytes:1 1000))

let test_pool_reduce_non_commutative () =
  with_pool (fun pool ->
      let n = 300 in
      let expect = String.concat "" (List.init n string_of_int) in
      let got =
        Pool.parallel_for_reduce pool ~lo:0 ~hi:n ~body:string_of_int ~combine:( ^ ) ~init:""
      in
      Alcotest.(check string) "order preserved" expect got)

let prop_pool_map_matches_seq =
  qtest ~count:30 "map_array = Array.map under contention"
    QCheck.(list small_int)
    (fun xs ->
      let a = Array.of_list xs in
      with_pool ~num_domains:2 (fun pool ->
          Pool.map_array pool (fun x -> (x * 17) mod 23) a = Array.map (fun x -> (x * 17) mod 23) a))

(* --- seeded randomized stress (lib/prop-style: deterministic schedules
   from Xoshiro seeds; only the physical interleaving varies) ------------- *)

let test_deque_seeded_stress () =
  (* 4 domains: the owner (this one) runs a seeded push/pop schedule while
     3 thieves steal concurrently. Every pushed element must be consumed
     exactly once: compare count / sum / sum-of-squares of the popped and
     stolen multiset against what was pushed. *)
  List.iter
    (fun seed ->
      let rng = Xoshiro.of_seed seed in
      let n_ops = 4000 in
      let ops =
        Array.init n_ops (fun _ ->
            if Xoshiro.int rng 3 < 2 then `Push (Xoshiro.int rng 1_000_000) else `Pop)
      in
      let dq = Ws_deque.create () in
      let done_ = Atomic.make false in
      let thieves =
        List.init 3 (fun _ ->
            Domain.spawn (fun () ->
                let got = ref [] in
                while not (Atomic.get done_) do
                  match Ws_deque.steal dq with
                  | v -> got := v :: !got
                  | exception Ws_deque.Empty -> Domain.cpu_relax ()
                done;
                !got))
      in
      let pushed_cnt = ref 0 and pushed_sum = ref 0 and pushed_sq = ref 0 in
      let consumed = ref [] in
      Array.iter
        (function
          | `Push v ->
              Ws_deque.push dq v;
              incr pushed_cnt;
              pushed_sum := !pushed_sum + v;
              pushed_sq := !pushed_sq + (v * v)
          | `Pop -> (
              match Ws_deque.pop dq with
              | v -> consumed := v :: !consumed
              | exception Ws_deque.Empty -> ()))
        ops;
      Atomic.set done_ true;
      List.iter (fun d -> consumed := Domain.join d @ !consumed) thieves;
      (* all thieves have stopped: the owner's drain is now definitive *)
      let rec drain () =
        match Ws_deque.pop dq with
        | v ->
            consumed := v :: !consumed;
            drain ()
        | exception Ws_deque.Empty -> ()
      in
      drain ();
      let cnt = List.length !consumed in
      let sum = List.fold_left ( + ) 0 !consumed in
      let sq = List.fold_left (fun acc v -> acc + (v * v)) 0 !consumed in
      Alcotest.(check int) (Printf.sprintf "seed %d: count" seed) !pushed_cnt cnt;
      Alcotest.(check int) (Printf.sprintf "seed %d: sum" seed) !pushed_sum sum;
      Alcotest.(check int) (Printf.sprintf "seed %d: sum of squares" seed) !pushed_sq sq)
    [ 42; 1337 ]

let test_queue_seeded_stress () =
  (* 4 domains: 2 producers with seeded value streams, 2 consumers polling
     until the producers are done and the queue is empty; the consumed
     multiset must equal the produced one. *)
  List.iter
    (fun seed ->
      let q = Mpmc_queue.create () in
      let produced_all = Atomic.make false in
      let per_producer = 3000 in
      let producers =
        List.init 2 (fun p ->
            Domain.spawn (fun () ->
                let rng = Xoshiro.of_seed (seed + p) in
                let sum = ref 0 and sq = ref 0 in
                for _ = 1 to per_producer do
                  let v = Xoshiro.int rng 1_000_000 in
                  Mpmc_queue.push q v;
                  sum := !sum + v;
                  sq := !sq + (v * v)
                done;
                (!sum, !sq)))
      in
      let consumers =
        List.init 2 (fun _ ->
            Domain.spawn (fun () ->
                let cnt = ref 0 and sum = ref 0 and sq = ref 0 in
                let rec poll () =
                  (* read the flag before polling: once it is set, an
                     empty queue stays empty *)
                  let last = Atomic.get produced_all in
                  match Mpmc_queue.try_pop q with
                  | Some v ->
                      incr cnt;
                      sum := !sum + v;
                      sq := !sq + (v * v);
                      poll ()
                  | None ->
                      if not last then begin
                        Domain.cpu_relax ();
                        poll ()
                      end
                in
                poll ();
                (!cnt, !sum, !sq)))
      in
      let produced = List.map Domain.join producers in
      Atomic.set produced_all true;
      let consumed = List.map Domain.join consumers in
      let psum = List.fold_left (fun a (s, _) -> a + s) 0 produced in
      let psq = List.fold_left (fun a (_, s) -> a + s) 0 produced in
      let ccnt = List.fold_left (fun a (c, _, _) -> a + c) 0 consumed in
      let csum = List.fold_left (fun a (_, s, _) -> a + s) 0 consumed in
      let csq = List.fold_left (fun a (_, _, s) -> a + s) 0 consumed in
      Alcotest.(check int) (Printf.sprintf "seed %d: count" seed) (2 * per_producer) ccnt;
      Alcotest.(check int) (Printf.sprintf "seed %d: sum" seed) psum csum;
      Alcotest.(check int) (Printf.sprintf "seed %d: sum of squares" seed) psq csq)
    [ 42; 1337 ]

let test_barrier_two_pools_coexist () =
  (* Two pools can run side by side without interference. *)
  let p1 = Pool.create ~num_domains:1 () in
  let p2 = Pool.create ~num_domains:1 () in
  Fun.protect
    ~finally:(fun () ->
      Pool.teardown p1;
      Pool.teardown p2)
    (fun () ->
      let a = Pool.async p1 (fun () -> Pool.run p2 (fun () -> 5)) in
      Alcotest.(check int) "nested pools" 5 (Pool.await p1 a))

let test_pool_failed_spawn_releases_workers () =
  (* more workers than the domain table holds: the pool must refuse, and
     release the workers it did spawn, or no later pool can spawn any *)
  (match Pool.create ~num_domains:128 () with
  | _ -> Alcotest.fail "expected a refused spawn"
  | exception Failure _ -> ());
  let p = Pool.create ~num_domains:2 () in
  Fun.protect
    ~finally:(fun () -> Pool.teardown p)
    (fun () -> Alcotest.(check int) "a later pool still runs" 5 (Pool.run p (fun () -> 5)))

let suite =
  [
    ( "xoshiro",
      [
        Alcotest.test_case "deterministic" `Quick test_xoshiro_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_xoshiro_seed_sensitivity;
        Alcotest.test_case "copy" `Quick test_xoshiro_copy;
        Alcotest.test_case "split independence" `Quick test_xoshiro_split_independent;
        Alcotest.test_case "nth_child replay" `Quick test_xoshiro_nth_child;
        Alcotest.test_case "bounds" `Quick test_xoshiro_bounds;
        Alcotest.test_case "int rejects bad bound" `Quick test_xoshiro_int_rejects;
        Alcotest.test_case "uniformity" `Slow test_xoshiro_uniformity;
      ] );
    ( "ws_deque",
      [
        Alcotest.test_case "lifo pop" `Quick test_deque_lifo;
        Alcotest.test_case "fifo steal" `Quick test_deque_steal_fifo;
        Alcotest.test_case "growth" `Quick test_deque_grow;
        Alcotest.test_case "mixed pop/steal" `Quick test_deque_mixed;
        Alcotest.test_case "concurrent steal" `Slow test_deque_concurrent_steal;
        Alcotest.test_case "seeded 4-domain stress" `Slow test_deque_seeded_stress;
      ] );
    ( "mpmc_queue",
      [
        Alcotest.test_case "fifo" `Quick test_queue_fifo;
        Alcotest.test_case "try_pop" `Quick test_queue_try_pop;
        Alcotest.test_case "seeded 4-domain stress" `Slow test_queue_seeded_stress;
        prop_queue_matches_model;
      ] );
    ( "pool",
      [
        Alcotest.test_case "async/await" `Quick test_pool_async_await;
        Alcotest.test_case "run" `Quick test_pool_run;
        Alcotest.test_case "exception propagation" `Quick test_pool_exception;
        Alcotest.test_case "parallel_for sum" `Quick test_pool_parallel_for_sum;
        Alcotest.test_case "parallel_for empty range" `Quick test_pool_parallel_for_empty;
        Alcotest.test_case "parallel_for_reduce" `Quick test_pool_parallel_for_reduce;
        Alcotest.test_case "nested fork/join" `Quick test_pool_nested_fork_join;
        Alcotest.test_case "map_array" `Quick test_pool_map_array;
        Alcotest.test_case "init_array" `Quick test_pool_init_array;
        Alcotest.test_case "zero workers" `Quick test_pool_zero_workers;
        Alcotest.test_case "teardown semantics" `Quick test_pool_after_teardown;
        Alcotest.test_case "spawn counts exceptions" `Quick test_pool_spawn_counts_exceptions;
        Alcotest.test_case "true parallelism" `Slow test_pool_actually_parallel;
        prop_parallel_reduce_matches_seq;
      ] );
    ( "barrier",
      [
        Alcotest.test_case "phases" `Slow test_barrier_phases;
        Alcotest.test_case "release opens for good" `Quick test_barrier_release;
        Alcotest.test_case "invalid parties" `Quick test_barrier_invalid;
      ] );
    ( "pool_extra",
      [
        Alcotest.test_case "await from another domain" `Quick test_pool_await_from_another_domain;
        Alcotest.test_case "concurrent submitters" `Slow test_pool_concurrent_submitters;
        Alcotest.test_case "deep nesting" `Quick test_pool_deep_nesting;
        Alcotest.test_case "many small tasks" `Slow test_pool_many_small_tasks;
        Alcotest.test_case "grain 1" `Quick test_pool_parallel_for_grain_one;
        Alcotest.test_case "bytes-aware grain" `Quick test_pool_grain_for_bytes;
        Alcotest.test_case "non-commutative reduce order" `Quick test_pool_reduce_non_commutative;
        prop_pool_map_matches_seq;
        Alcotest.test_case "two pools coexist" `Quick test_barrier_two_pools_coexist;
      ] );
    (* last: it fills the runtime's domain table *)
    ( "domains",
      [
        Alcotest.test_case "failed spawn releases spawned workers" `Quick
          test_pool_failed_spawn_releases_workers;
      ] );
  ]

let () = Alcotest.run "runtime" suite
