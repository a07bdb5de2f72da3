(* Work-stealing domain pool.

   Architecture: one spawned domain per worker, each owning a Chase-Lev
   deque.  Tasks submitted from inside a worker go to its own deque (LIFO,
   depth-first, cache-friendly); tasks submitted from outside go to a shared
   injection queue.  Idle workers steal from victims chosen by a per-worker
   PRNG, then fall back to the injection queue, then sleep on a condition
   variable.  [await] never blocks the thread: it *helps* by running other
   tasks until its promise resolves, so nested fork/join cannot deadlock.

   Wakeup protocol: a submitter signals the condition variable only when the
   sleeper count is non-zero.  A worker that decides to sleep increments the
   sleeper count and re-checks for work while holding the mutex, which
   closes the lost-wakeup race (a concurrent submitter either sees the
   sleeper count and blocks on the same mutex, or published its task before
   the re-check). *)

type task = unit -> unit

type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a promise = 'a state Atomic.t

(* Scheduling statistics are plain (non-atomic) fields: each is written
   only by the one domain that owns the worker, so increments are free and
   stay on even when the obs layer is disabled.  Reads (Pool.stats) are
   racy by a few events while the pool is busy; quiesce for exact values. *)
type worker = {
  wid : int;
  deque : task Ws_deque.t;
  rng : Xoshiro.t;
  mutable n_pops : int;  (* tasks taken from the own deque *)
  mutable n_steals : int;  (* tasks stolen from a victim *)
  mutable n_inject : int;  (* tasks taken from the injection queue *)
}

type t = {
  pool_id : int;
  workers : worker array;
  mutable domains : unit Domain.t array;
  inject : task Mpmc_queue.t;
  alive : bool Atomic.t;
  sleepers : int Atomic.t;
  sleep_mutex : Mutex.t;
  sleep_cond : Condition.t;
  (* Tasks found by non-worker domains (callers helping inside [await]);
     atomics because several external domains may help concurrently. *)
  ext_steals : int Atomic.t;
  ext_inject : int Atomic.t;
  submitted : int Atomic.t;  (* total tasks ever scheduled *)
  task_exceptions : int Atomic.t;  (* bare tasks that raised (promise-less) *)
}

let next_pool_id = Atomic.make 0

(* Which worker of which pool the current domain is, if any. *)
let current_worker_key : (int * worker) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let num_workers t = Array.length t.workers

let my_worker t =
  match Domain.DLS.get current_worker_key with
  | Some (pid, w) when pid = t.pool_id -> Some w
  | Some _ | None -> None

let maybe_wake t =
  if Atomic.get t.sleepers > 0 then begin
    Mutex.lock t.sleep_mutex;
    Condition.broadcast t.sleep_cond;
    Mutex.unlock t.sleep_mutex
  end

let wake_all t =
  Mutex.lock t.sleep_mutex;
  Condition.broadcast t.sleep_cond;
  Mutex.unlock t.sleep_mutex

let schedule t task =
  Atomic.incr t.submitted;
  (match my_worker t with
  | Some w -> Ws_deque.push w.deque task
  | None -> Mpmc_queue.push t.inject task);
  maybe_wake t

(* Try to obtain one runnable task.  [w] is the calling worker, if any. *)
let find_task t (w : worker option) : task option =
  let n = Array.length t.workers in
  let try_pop_own () =
    match w with
    | Some w -> (
        match Ws_deque.pop w.deque with
        | t' ->
            w.n_pops <- w.n_pops + 1;
            Some t'
        | exception Ws_deque.Empty -> None)
    | None -> None
  in
  let try_inject () =
    match Mpmc_queue.try_pop t.inject with
    | Some _ as r ->
        (match w with Some w -> w.n_inject <- w.n_inject + 1 | None -> Atomic.incr t.ext_inject);
        r
    | None -> None
  in
  let try_steal () =
    if n = 0 then None
    else begin
      let self = match w with Some w -> w.wid | None -> -1 in
      let start =
        match w with Some w -> Xoshiro.int w.rng (max 1 n) | None -> 0
      in
      let rec scan i =
        if i >= n then None
        else begin
          let victim = (start + i) mod n in
          if victim = self then scan (i + 1)
          else
            match Ws_deque.steal t.workers.(victim).deque with
            | task ->
                (match w with
                | Some w -> w.n_steals <- w.n_steals + 1
                | None -> Atomic.incr t.ext_steals);
                Some task
            | exception Ws_deque.Empty -> scan (i + 1)
        end
      in
      scan 0
    end
  in
  match try_pop_own () with
  | Some _ as r -> r
  | None -> ( match try_inject () with Some _ as r -> r | None -> try_steal ())

let has_work t =
  (not (Mpmc_queue.is_empty t.inject))
  || Array.exists (fun w -> not (Ws_deque.is_empty w.deque)) t.workers

let run_task t task =
  (* Promise-wrapped tasks capture their own exceptions ([async] stores them
     in the promise); a bare task that raises would otherwise kill its worker
     domain, so guard — but count, so the failure is visible in [stats] and
     the [pool.task_exceptions] obs counter instead of vanishing. *)
  try task ()
  with _ -> Atomic.incr t.task_exceptions

let sleep t =
  Mutex.lock t.sleep_mutex;
  Atomic.incr t.sleepers;
  if Atomic.get t.alive && not (has_work t) then Condition.wait t.sleep_cond t.sleep_mutex;
  Atomic.decr t.sleepers;
  Mutex.unlock t.sleep_mutex

let worker_loop t w () =
  Domain.DLS.set current_worker_key (Some (t.pool_id, w));
  let backoff = Backoff.create ~max_rounds:64 () in
  let rec loop () =
    if Atomic.get t.alive then begin
      match find_task t (Some w) with
      | Some task ->
          Backoff.reset backoff;
          run_task t task;
          loop ()
      | None ->
          (* Spin briefly before sleeping: tasks usually arrive in bursts. *)
          Backoff.once backoff;
          (match find_task t (Some w) with
          | Some task ->
              Backoff.reset backoff;
              run_task t task
          | None -> sleep t);
          loop ()
    end
  in
  loop ()

let create ?num_domains () =
  let n =
    match num_domains with
    | Some n ->
        if n < 0 then invalid_arg "Pool.create: num_domains must be >= 0";
        n
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  let pool_id = Atomic.fetch_and_add next_pool_id 1 in
  let workers =
    Array.init n (fun wid ->
        {
          wid;
          deque = Ws_deque.create ();
          rng = Xoshiro.of_seed ((pool_id * 8191) + wid);
          n_pops = 0;
          n_steals = 0;
          n_inject = 0;
        })
  in
  let t =
    {
      pool_id;
      workers;
      domains = [||];
      inject = Mpmc_queue.create ();
      alive = Atomic.make true;
      sleepers = Atomic.make 0;
      sleep_mutex = Mutex.create ();
      sleep_cond = Condition.create ();
      ext_steals = Atomic.make 0;
      ext_inject = Atomic.make 0;
      submitted = Atomic.make 0;
      task_exceptions = Atomic.make 0;
    }
  in
  (* A spawn can fail (the runtime's domain table is finite): stop and join
     the workers already spawned before re-raising, or they would loop on
     a pool nobody can tear down, holding their domain slots for good. *)
  let spawned = ref [] in
  (try Array.iter (fun w -> spawned := Domain.spawn (worker_loop t w) :: !spawned) workers
   with e ->
     Atomic.set t.alive false;
     wake_all t;
     List.iter Domain.join !spawned;
     raise e);
  t.domains <- Array.of_list (List.rev !spawned);
  t

(* --- scheduling statistics -------------------------------------------- *)

type worker_stats = { tasks : int; own_pops : int; steals : int; inject_pops : int }

type stats = {
  per_worker : worker_stats array;
  external_steals : int;  (* tasks run by non-worker domains helping in await *)
  external_inject_pops : int;
  total_submitted : int;
  total_tasks : int;  (* = sum of all pops + steals + inject pops *)
  task_exceptions : int;  (* bare tasks whose exception the pool swallowed *)
}

let worker_stats_of w =
  {
    tasks = w.n_pops + w.n_steals + w.n_inject;
    own_pops = w.n_pops;
    steals = w.n_steals;
    inject_pops = w.n_inject;
  }

let stats t =
  let per_worker = Array.map worker_stats_of t.workers in
  let external_steals = Atomic.get t.ext_steals in
  let external_inject_pops = Atomic.get t.ext_inject in
  {
    per_worker;
    external_steals;
    external_inject_pops;
    total_submitted = Atomic.get t.submitted;
    total_tasks =
      Array.fold_left (fun acc ws -> acc + ws.tasks) 0 per_worker
      + external_steals + external_inject_pops;
    task_exceptions = Atomic.get t.task_exceptions;
  }

(* Global obs counters, fed when a pool is torn down (never on the hot
   path).  Registration at module init costs nothing while disabled. *)
let obs_tasks = Obs.Counter.make "pool.tasks"
let obs_steals = Obs.Counter.make "pool.steals"
let obs_inject = Obs.Counter.make "pool.inject_pops"
let obs_submitted = Obs.Counter.make "pool.submitted"
let obs_task_exceptions = Obs.Counter.make "pool.task_exceptions"

let publish_obs t =
  let s = stats t in
  Obs.Counter.add obs_tasks s.total_tasks;
  Obs.Counter.add obs_steals
    (Array.fold_left (fun acc ws -> acc + ws.steals) s.external_steals s.per_worker);
  Obs.Counter.add obs_inject
    (Array.fold_left (fun acc ws -> acc + ws.inject_pops) s.external_inject_pops s.per_worker);
  Obs.Counter.add obs_submitted s.total_submitted;
  Obs.Counter.add obs_task_exceptions s.task_exceptions

let teardown t =
  if Atomic.get t.alive then begin
    Atomic.set t.alive false;
    wake_all t;
    Array.iter Domain.join t.domains;
    t.domains <- [||];
    if Obs.enabled () then publish_obs t
  end

let async t f =
  if not (Atomic.get t.alive) then invalid_arg "Pool.async: pool is shut down";
  let p : 'a promise = Atomic.make Pending in
  let task () =
    match f () with
    | v -> Atomic.set p (Done v)
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Atomic.set p (Failed (e, bt))
  in
  schedule t task;
  p

let rec await t p =
  match Atomic.get p with
  | Done v -> v
  | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | Pending ->
      (match find_task t (my_worker t) with
      | Some task -> run_task t task
      | None -> Domain.cpu_relax ());
      await t p

let run t f =
  let p = async t f in
  await t p

let spawn t task =
  if not (Atomic.get t.alive) then invalid_arg "Pool.spawn: pool is shut down";
  schedule t task

(* Size-aware grain heuristic, shared by every data-parallel loop in the
   system (the loop primitives below and Exec's backend chunking).  Two
   forces: enough tasks per worker that stealing can balance uneven loads
   (TASKS_PER_WORKER), but never chunks so small that per-task scheduling
   overhead dominates the body (MIN_GRAIN) — in particular an n-element
   array smaller than MIN_GRAIN runs as a single sequential task instead of
   n per-element tasks. *)
let tasks_per_worker = 4
let min_grain = 32

let grain_for t n =
  if n <= 0 then 1
  else begin
    let w = max 1 (num_workers t) in
    let balanced = (n + (tasks_per_worker * w) - 1) / (tasks_per_worker * w) in
    max (min min_grain n) balanced
  end

(* Bytes-aware variant for unboxed (Bigarray-backed) loops.  [grain_for]'s
   32-element floor is tuned for boxed elements, where each application
   chases a pointer and the body dwarfs the scheduling overhead; an
   unboxed 8-byte float body is a handful of instructions, so the floor is
   a byte budget instead — every task touches at least MIN_GRAIN_BYTES of
   payload (2 KiB: 256 floats) before fork/join bookkeeping is allowed to
   show up.  The balance term is unchanged, so large arrays chunk exactly
   as [grain_for] does and only the small-array floor differs. *)
let min_grain_bytes = 2048

let grain_for_bytes t ~elem_bytes n =
  if n <= 0 then 1
  else begin
    let eb = max 1 elem_bytes in
    let w = max 1 (num_workers t) in
    let balanced = (n + (tasks_per_worker * w) - 1) / (tasks_per_worker * w) in
    let floor_elems = (min_grain_bytes + eb - 1) / eb in
    max (min floor_elems n) balanced
  end

let parallel_for ?grain t ~lo ~hi body =
  let grain = match grain with Some g -> max 1 g | None -> grain_for t (hi - lo) in
  let rec go lo hi =
    if hi - lo <= grain then
      for i = lo to hi - 1 do
        body i
      done
    else begin
      let mid = lo + ((hi - lo) / 2) in
      let right = async t (fun () -> go mid hi) in
      go lo mid;
      await t right
    end
  in
  if hi > lo then go lo hi

let parallel_for_reduce t ~lo ~hi ~body ~combine ~init =
  let grain = grain_for t (hi - lo) in
  let rec go lo hi =
    if hi - lo <= grain then begin
      let acc = ref init in
      for i = lo to hi - 1 do
        acc := combine !acc (body i)
      done;
      !acc
    end
    else begin
      let mid = lo + ((hi - lo) / 2) in
      let right = async t (fun () -> go mid hi) in
      let left = go lo mid in
      combine left (await t right)
    end
  in
  if hi <= lo then init else go lo hi

let map_array t f a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let first = f a.(0) in
    let out = Array.make n first in
    parallel_for t ~lo:1 ~hi:n (fun i -> out.(i) <- f a.(i));
    out
  end

let mapi_array t f a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let first = f 0 a.(0) in
    let out = Array.make n first in
    parallel_for t ~lo:1 ~hi:n (fun i -> out.(i) <- f i a.(i));
    out
  end

let init_array ?grain t n f =
  if n = 0 then [||]
  else if n < 0 then invalid_arg "Pool.init_array: negative length"
  else begin
    let first = f 0 in
    let out = Array.make n first in
    parallel_for ?grain t ~lo:1 ~hi:n (fun i -> out.(i) <- f i);
    out
  end
