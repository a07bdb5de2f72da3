(* End-to-end and per-layer benchmark of the skeleton engines.

     bench.exe --workload W --seed N --seconds S --trace 0|1 [--tiny]

   Each invocation runs one workload in this (fresh) process, measures for
   S seconds, checks every output, and prints as its last stdout line one
   JSON object {correct, attempted, failed, metrics}. With --trace 0 the
   metrics are the end-to-end ones, taken from untraced runs of the
   library entry points; with --trace 1 they are the per-layer ones, taken
   from traced copies of the program bodies (see traced.ml) run alongside
   the untraced calls. The line before it holds diagnostics (sample
   counts, host core count, CPU steal), which are not metrics. --tiny
   shrinks every input so the whole suite runs in seconds (smoke test).

   README.md in this directory gives each workload's reason and the
   layer -> metric map. *)

open Machine
module Hqs = Algorithms.Hyperquicksort
module Cg = Algorithms.Cg
module J = Obs.Json

(* ------------------------------------------------------------ host *)

let now = Obs.Clock.now_ns
let s_since t0 = Obs.Clock.ns_to_s (Obs.Clock.ns_since t0)

(* Process plus reaped-children CPU seconds. *)
let cpu_s () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime +. t.tms_cutime +. t.tms_cstime

let status_kb field =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | l when String.starts_with ~prefix:field l ->
        Scanf.sscanf (String.sub l (String.length field) (String.length l - String.length field)) " %d" Fun.id
    | _ -> go ()
    | exception End_of_file -> 0
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

let peak_rss_mb () = float_of_int (status_kb "VmHWM:") /. 1024.0

(* (steal, total) jiffies from the aggregate cpu line of /proc/stat. *)
let cpu_jiffies () =
  try
    let ic = open_in "/proc/stat" in
    let l = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    let fields =
      List.filter_map int_of_string_opt (List.tl (String.split_on_char ' ' l))
    in
    let steal = match List.nth_opt fields 7 with Some s -> s | None -> 0 in
    (steal, List.fold_left ( + ) 0 fields)
  with _ -> (0, 0)

(* OCaml 5 refuses [Unix.fork] once any second domain has existed, and
   such a domain leaves its thread behind even after it is joined. *)
exception Fork_after_domain of string

let assert_never_spawned_domain () =
  let threads = status_kb "Threads:" in
  if threads <> 1 then
    raise
      (Fork_after_domain
         (Printf.sprintf "%d threads before the first Procs run: a domain was spawned" threads))

(* ------------------------------------------------------------ stats *)

(* Nearest-rank percentile, as the service report computes it. *)
let quantile q (xs : float array) =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n = 0 then 0.0 else s.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median xs = quantile 0.5 xs

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

(* ------------------------------------------------------------ output *)

type result = {
  attempted : int;
  failed : int;
  correct : bool;
  metrics : (string * float * string) list;  (* name, value, unit *)
  diag : (string * J.t) list;
}

let emit r =
  let metrics =
    List.map (fun (n, v, u) -> (n, J.Obj [ ("value", J.Float v); ("unit", J.String u) ])) r.metrics
  in
  print_endline ("# diagnostics " ^ J.to_string (J.Obj r.diag));
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool r.correct);
            ("attempted", J.Int r.attempted);
            ("failed", J.Int r.failed);
            ("metrics", J.Obj metrics);
          ]))

(* ------------------------------------------------------------ sizes *)

type sizes = {
  sort_n : int;  (* keys per sort job *)
  cg_n : int;  (* CG system size *)
  body_n : int;  (* keys sorted by one service job *)
  warmup_s : float;  (* arrivals in one service warm-up session *)
  ref_keys : int;  (* keys per copy of the sort workload's reference kernel *)
  ref_reps : int;  (* 1000-key sorts in the solve and service reference kernel *)
}

let full_sizes =
  { sort_n = 1_000_000; cg_n = 1000; body_n = 1000; warmup_s = 0.3; ref_keys = 250_000; ref_reps = 550 }

let tiny_sizes = { sort_n = 20_000; cg_n = 64; body_n = 64; warmup_s = 0.02; ref_keys = 10_000; ref_reps = 10 }

(* Service offered rate, requests per second over both clients: about a
   seventh of the ~7500 req/s knee measured on a 2-vCPU host, where the
   latency figures repeat between runs (see README.md). *)
let service_rate = 1000.0
let cg_tol = 1e-8
let setup_reps = 5
let job_timeout_s = 60.0

(* ------------------------------------------------------------ per-layer *)

let per_layer_names =
  [
    ("kernel.sort_s", "s");
    ("kernel.split_s", "s");
    ("kernel.merge_s", "s");
    ("kernel.flat_s", "s");
    ("kernel.body_s", "s");
    ("kernel.share", "ratio");
    ("comm.allreduce_s", "s");
    ("comm.allreduce.calls", "count");
    ("comm.halo_s", "s");
    ("comm.exchange_s", "s");
    ("comm.scatter_s", "s");
    ("comm.gather_s", "s");
    ("comm.split_s", "s");
    ("fabric.msgs", "count");
    ("fabric.bytes", "bytes");
    ("fabric.send_s", "s");
    ("fabric.recv_wait_s", "s");
    ("mc.sleeps", "count");
    ("procs.spawn_s", "s");
    ("procs.reap_s", "s");
    ("service.queue_s.p50", "s");
    ("service.queue_s.p99", "s");
    ("service.lag_s.p99", "s");
    ("service.offered_per_s", "1/s");
    ("service.batches", "count");
    ("service.coalesced", "count");
    ("service.redeals", "count");
    ("service.max_queue_depth", "count");
    ("tracing.overhead", "ratio");
  ]

(* Fill every per-layer name: layers a workload does not cross read 0. *)
let layer_metrics (given : (string * float) list) =
  List.map
    (fun (n, u) -> (n, (match List.assoc_opt n given with Some v -> v | None -> 0.0), u))
    per_layer_names

let kernel_spans = [ "kernel.sort"; "kernel.split"; "kernel.merge"; "kernel.flat"; "kernel.body" ]

(* Per-job means over the traced jobs of a closed-loop workload. *)
let closed_layers (jobs : 'a Traced.job list) =
  let nj = float_of_int (List.length jobs) in
  let sum f = List.fold_left (fun acc j -> acc + f j) 0 jobs in
  let over_ranks f (j : 'a Traced.job) = Array.fold_left (fun acc b -> acc + f b) 0 j.bufs in
  let busy name = sum (over_ranks (fun b -> Tracer.busy_ns b name)) in
  let per_job_s name = Obs.Clock.ns_to_s (busy name) /. nj in
  let kernel_ns = List.fold_left (fun acc n -> acc + busy n) 0 kernel_spans in
  let rank_time = sum (fun j -> j.wall_ns * j.units) in
  [
    ("kernel.sort_s", per_job_s "kernel.sort");
    ("kernel.split_s", per_job_s "kernel.split");
    ("kernel.merge_s", per_job_s "kernel.merge");
    ("kernel.flat_s", per_job_s "kernel.flat");
    ("kernel.share", float_of_int kernel_ns /. float_of_int (max 1 rank_time));
    ("comm.allreduce_s", per_job_s "comm.allreduce");
    ( "comm.allreduce.calls",
      float_of_int (sum (over_ranks (fun b -> Tracer.calls b "comm.allreduce"))) /. nj );
    ("comm.halo_s", per_job_s "comm.halo");
    ("comm.exchange_s", per_job_s "comm.exchange");
    ("comm.scatter_s", per_job_s "comm.scatter");
    ("comm.gather_s", per_job_s "comm.gather");
    ("comm.split_s", per_job_s "comm.split");
    ("fabric.msgs", float_of_int (sum (over_ranks (fun b -> b.Tracer.msgs))) /. nj);
    ("fabric.bytes", float_of_int (sum (over_ranks (fun b -> b.Tracer.bytes))) /. nj);
    ("fabric.send_s", per_job_s "fabric.send");
    ("fabric.recv_wait_s", per_job_s "fabric.recv");
    ("mc.sleeps", float_of_int (sum (fun j -> j.mc_sleeps)) /. nj);
    ("procs.spawn_s", Obs.Clock.ns_to_s (sum (fun j -> j.spawn_ns)) /. nj);
    ("procs.reap_s", Obs.Clock.ns_to_s (sum (fun j -> j.reap_ns)) /. nj);
  ]

let trace_dir = ".perfbench"

let write_trace ~workload ~seed (jobs : Tracer.buf array list) =
  (try Unix.mkdir trace_dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
  let path = Printf.sprintf "%s/%s-seed%d.trace.json" trace_dir workload seed in
  Tracer.write_chrome path jobs;
  path

(* ------------------------------------------------------------ host speed *)

(* A shared host runs this process at one speed for seconds to minutes,
   then up to ~1.6x slower (or ~1.4x faster) while other tenants come and
   go; CPU time stretches with wall time, so neither is steady between
   runs. Each closed-loop job is therefore paired with a run of a fixed
   reference kernel taken just before it (each service session, with
   runs on both sides): stdlib [Array.stable_sort]s of fixed keys, no
   code of this repository, with the job's working set (a rank's share
   of the sort keys, 2 MB per copy; a cache-resident 1000-key array for
   CG and the service) and in its parallel shape (two domains; two
   processes, since a process that forks may never have spawned a
   domain; one domain). Times are reported in reference-host seconds,
   [time / reference * ref_kernel_s]: the host's speed cancels in the
   ratio, the program's does not. *)
type shape = One_domain | Two_domains | Two_processes

type ref_kernel = { shape : shape; keys : int array; reps : int }

(* About the reference kernels' wall time on the quiet 2-vCPU host the
   benchmark was built on. It only fixes the unit. *)
let ref_kernel_s = 0.07

let ref_kernel shape ~keys ~reps =
  let rng = Random.State.make [| 0x5ca1; keys |] in
  { shape; keys = Array.init keys (fun _ -> Random.State.bits rng); reps }

let ref_sort k () =
  for _ = 1 to k.reps do
    let a = Array.copy k.keys in
    Array.stable_sort Int.compare a;
    ignore (Sys.opaque_identity a)
  done

(* Wall and CPU seconds of one reference run; the CPU time is per copy of
   the kernel, so that both read about [ref_kernel_s] on a quiet host. *)
type reference = { ref_wall : float; ref_cpu : float }

let reference k =
  let c0 = cpu_s () in
  let t0 = now () in
  (match k.shape with
  | One_domain -> ref_sort k ()
  | Two_domains ->
      let d = Domain.spawn (ref_sort k) in
      ref_sort k ();
      Domain.join d
  | Two_processes -> (
      match Unix.fork () with
      | 0 ->
          ref_sort k ();
          Unix._exit 0
      | pid ->
          ref_sort k ();
          ignore (Unix.waitpid [] pid)));
  let ref_wall = s_since t0 in
  { ref_wall; ref_cpu = (cpu_s () -. c0) /. if k.shape = One_domain then 1.0 else 2.0 }

(* [t] seconds taken next to a reference run of [r] seconds, in
   reference-host seconds. Wall time is scaled by the reference's wall
   time and CPU time by its CPU time: a tenant that takes turns on a core
   stretches wall time only, one that slows every instruction stretches
   both. *)
let normalised t r = t /. r *. ref_kernel_s

(* Set up [reps] times and keep the last instance: the reported set-up
   time is the median, so one slow repetition does not move it. With
   [ref_k], each repetition follows a reference run and is reported in
   reference-host seconds, like the jobs. *)
let timed_setup ?ref_k ~reps (f : unit -> 'a) : 'a * float =
  let times = Array.make reps 0.0 in
  let last = ref None in
  for i = 0 to reps - 1 do
    (* drop the previous repetition first, so the peak RSS of the run
       does not depend on when the collector would have run *)
    last := None;
    Gc.full_major ();
    let r = Option.map reference ref_k in
    let t0 = now () in
    last := Some (f ());
    let t = s_since t0 in
    times.(i) <- (match r with Some r -> normalised t r.ref_wall | None -> t)
  done;
  (Option.get !last, median times)

(* ------------------------------------------------------------ closed loop *)

type 'o outcome = Done of 'o | Raised of string

(* Run [job] back to back for [seconds] (at least once): one client, the
   next job starts when the previous returns. Returns per-job wall and
   CPU seconds, the reference run before each job and the failure count;
   a job that raises or exceeds the timeout fails without aborting the
   run. Each job starts from a collected heap (untimed), so neither its
   time nor the run's peak RSS depends on how much of the previous jobs'
   garbage the collector had left behind. *)
let closed_loop ~ref_k ~seconds ~(job : int -> 'o) ~(check : int -> 'o -> bool) =
  let walls = ref [] and refs = ref [] and cpus = ref [] and failed = ref 0 and n = ref 0 in
  let t_start = now () in
  while !n = 0 || s_since t_start < seconds do
    Gc.full_major ();
    refs := reference ref_k :: !refs;
    let c0 = cpu_s () in
    let t0 = now () in
    let out = try Done (job !n) with e -> Raised (Printexc.to_string e) in
    let wall = s_since t0 in
    cpus := (cpu_s () -. c0) :: !cpus;
    walls := wall :: !walls;
    (match out with
    | Done o -> if wall > job_timeout_s || not (check !n o) then incr failed
    | Raised msg ->
        prerr_endline ("job failed: " ^ msg);
        incr failed);
    incr n
  done;
  let arr l = Array.of_list (List.rev !l) in
  (arr walls, arr cpus, arr refs, !failed)

(* [job_s.steady] is the median job time in reference-host seconds;
   throughput and CPU time are scaled the same way (CPU time over the
   whole run: [Unix.times] ticks at 10 ms). Raw, the median flips between
   the host's plateaus depending on how a run's seconds fell (solve: 0.28
   of itself between seeds), and the p90 and mean moved by 0.25-0.3
   between runs on a busier host. Over six seeds on a 2-vCPU VM, the
   quartile distance of sort-procs' raw p90 was 0.10 of its median, and
   that of its scaled median, from the same runs, 0.023. *)
let closed_result ~setup_s (walls, cpus, refs, failed) ~diag =
  let n = Array.length walls in
  let sum = Array.fold_left ( +. ) 0.0 in
  let scaled = Array.map2 (fun w r -> normalised w r.ref_wall) walls refs in
  {
    attempted = n;
    failed;
    correct = failed = 0;
    metrics =
      [
        ("setup_s", setup_s, "s");
        ("job_s.steady", median scaled, "s");
        ("jobs_per_s", float_of_int n /. sum scaled, "1/s");
        ("cpu_s_per_job", normalised (sum cpus) (sum (Array.map (fun r -> r.ref_cpu) refs)), "s");
        ("peak_rss_mb", peak_rss_mb (), "MB");
      ];
    diag =
      ("jobs", J.Int n)
      :: ("wall_s.p50", J.Float (median walls))
      :: ("wall_s.p90", J.Float (quantile 0.9 walls))
      :: ("wall_s.mean", J.Float (sum walls /. float_of_int n))
      :: ("cpu_s_per_job.raw", J.Float (sum cpus /. float_of_int n))
      :: ("reference_s.p50", J.Float (median (Array.map (fun r -> r.ref_wall) refs)))
      :: diag;
  }

(* Alternate untraced library jobs with traced copies on the same input,
   for [seconds]. Every output of either kind must match the reference,
   and each traced output must equal the untraced one. *)
let traced_loop ~seconds ~workload ~seed ~(plain : int -> 'o) ~(traced : keep:bool -> int -> 'o Traced.job)
    ~(check : int -> 'o -> bool) =
  let plain_walls = ref [] and traced_walls = ref [] and jobs = ref [] in
  let failed = ref 0 and n = ref 0 and kept = ref [] in
  let t_start = now () in
  while !n = 0 || s_since t_start < seconds do
    let i = !n in
    let t0 = now () in
    let p = try Some (plain i) with e -> prerr_endline (Printexc.to_string e); None in
    plain_walls := s_since t0 :: !plain_walls;
    let t1 = now () in
    let t = try Some (traced ~keep:(i = 0) i) with e -> prerr_endline (Printexc.to_string e); None in
    traced_walls := s_since t1 :: !traced_walls;
    (match (p, t) with
    | Some p, Some t ->
        if not (check i p && check i t.value && p = t.value) then incr failed;
        if i = 0 then kept := [ t.bufs ];
        jobs := { t with value = () } :: !jobs
    | _ -> incr failed);
    incr n
  done;
  let path = write_trace ~workload ~seed !kept in
  let overhead = median (Array.of_list !traced_walls) /. median (Array.of_list !plain_walls) in
  {
    attempted = !n;
    failed = !failed;
    correct = !failed = 0;
    metrics = layer_metrics (("tracing.overhead", overhead) :: closed_layers !jobs);
    diag = [ ("traced_jobs", J.Int (List.length !jobs)); ("trace_file", J.String path) ];
  }

(* ------------------------------------------------------------ sort *)

let sort_inputs ~n ~seed =
  let rng = Random.State.make [| seed; 1 |] in
  Array.init 2 (fun _ -> Array.init n (fun _ -> Random.State.bits rng))

let sort_workload ~procs_engine ~sizes ~seed ~seconds ~trace =
  let run data =
    if procs_engine then fst (Hqs.sort_procs ~procs:2 data)
    else fst (Hqs.sort_multicore_flatint ~domains:2 ~procs:2 data)
  in
  if procs_engine then assert_never_spawned_domain ();
  let ref_k = ref_kernel (if procs_engine then Two_processes else Two_domains) ~keys:sizes.ref_keys ~reps:1 in
  let (inputs, refs), setup_s =
    timed_setup ~ref_k ~reps:setup_reps (fun () ->
        let inputs = sort_inputs ~n:sizes.sort_n ~seed in
        let refs =
          Array.map
            (fun a ->
              let c = Array.copy a in
              Array.sort Int.compare c;
              c)
            inputs
        in
        for i = 0 to 1 do
          if run inputs.(i) <> refs.(i) then failwith "sort: warm-up output differs from the reference"
        done;
        (inputs, refs))
  in
  let pick i = i mod Array.length inputs in
  let check i out = out = refs.(pick i) in
  if trace then
    let traced ~keep i =
      let data = inputs.(pick i) in
      let body t comm = Traced.hqs_flatint t (if Comm.rank comm = 0 then Some data else None) comm in
      if procs_engine then Traced.procs ~procs:2 ~keep body
      else Traced.multicore ~domains:2 ~procs:2 ~keep body
    in
    traced_loop ~seconds ~workload:(if procs_engine then "sort-procs" else "sort") ~seed
      ~plain:(fun i -> run inputs.(pick i))
      ~traced ~check
  else
    closed_result ~setup_s (closed_loop ~ref_k ~seconds ~job:(fun i -> run inputs.(pick i)) ~check) ~diag:[]

(* ------------------------------------------------------------ solve *)

let solve_workload ~sizes ~seed ~seconds ~trace =
  let run b = fst (Cg.solve_multicore_flat ~domains:1 ~tol:cg_tol ~procs:2 b) in
  let same (a : Cg.result) (b : Cg.result) =
    a.iterations = b.iterations && bits_equal a.solution b.solution
    && Int64.equal (Int64.bits_of_float a.residual_norm) (Int64.bits_of_float b.residual_norm)
  in
  let ref_k = ref_kernel One_domain ~keys:1000 ~reps:sizes.ref_reps in
  let (inputs, refs), setup_s =
    timed_setup ~ref_k ~reps:setup_reps (fun () ->
        let rng = Random.State.make [| seed; 2 |] in
        let inputs =
          Array.init 2 (fun _ -> Array.init sizes.cg_n (fun _ -> Random.State.float rng 2.0 -. 1.0))
        in
        let refs = Array.map (fun b -> fst (Cg.solve_sim_flat ~tol:cg_tol ~procs:2 b)) inputs in
        for i = 0 to 1 do
          if not (same (run inputs.(i)) refs.(i)) then
            failwith "solve: warm-up output differs from solve_sim_flat"
        done;
        (inputs, refs))
  in
  let pick i = i mod Array.length inputs in
  let check i out = same out refs.(pick i) in
  let iters = Array.map (fun (r : Cg.result) -> J.Int r.iterations) refs in
  if trace then
    let traced ~keep i =
      let b = inputs.(pick i) in
      Traced.multicore ~domains:1 ~procs:2 ~keep (fun t comm ->
          Traced.cg_flat t ~tol:cg_tol ~max_iter:10_000 (if Comm.rank comm = 0 then Some b else None) comm)
    in
    let r =
      traced_loop ~seconds ~workload:"solve" ~seed ~plain:(fun i -> run inputs.(pick i)) ~traced ~check
    in
    { r with diag = ("iterations", J.List (Array.to_list iters)) :: r.diag }
  else
    closed_result ~setup_s
      (closed_loop ~ref_k ~seconds ~job:(fun i -> run inputs.(pick i)) ~check)
      ~diag:[ ("iterations", J.List (Array.to_list iters)) ]

(* ------------------------------------------------------------ service *)

let clients = 2
let service_procs = 8 (* master, 2 clients, 5 workers *)
let repeat_share = 0.2
let tail_gap = 0.1
let service_sessions = 10

(* The job body's input for a key: [body_n] keys from a per-key stream. *)
let body_input ~seed ~n key =
  let rng = Random.State.make [| seed; 3; key |] in
  Array.init n (fun _ -> Random.State.bits rng)

type session = {
  report : Service.report;
  stats : Multicore.stats;
  bad : int;  (* job bodies whose output failed the check *)
  expected : int;  (* submissions the schedule holds *)
  lags : float array;  (* per submission: send time - due time *)
  queue : float array;  (* per job body: start - due time of its key *)
  offered : float;  (* achieved submission rate *)
  cpu : float;
  body : Tracer.buf;
}

(* One open-loop session: [clients] producers follow a seeded absolute
   Poisson schedule at [rate] for [seconds]. [gap] sleeps until the next
   due time (0 when late, so late submissions catch up); [job_of], called
   right after that sleep, records the lateness. *)
let session ~rate ~seconds ~seed ~body_n ~traced =
  let per_client = max 1 (int_of_float (rate *. seconds /. float_of_int clients)) in
  let total = clients * per_client in
  let rng = Random.State.make [| seed; 4 |] in
  let due =
    Array.init clients (fun _ ->
        let t = ref 0.0 in
        Array.init per_client (fun _ ->
            t := !t -. (log (1.0 -. Random.State.float rng 1.0) *. float_of_int clients /. rate);
            !t))
  in
  (* The schedule ends quietly: each client's last submission comes
     [tail_gap] after everything before it, one client after the other,
     so no two jobs are in flight when the master drains. Otherwise the
     drain re-deals the still-running job to idle workers, which the
     checks count as failures. *)
  let last_due = Array.fold_left (fun acc d -> Float.max acc d.(per_client - 1)) 0.0 due in
  Array.iteri (fun c d -> d.(per_client - 1) <- last_due +. (tail_gap *. float_of_int (c + 1))) due;
  (* Keys: a fixed share of submissions repeat the key of the submission
     due just before them (never a repeat itself), so some arrive while
     that key is still pending and coalesce. *)
  let keys = Array.init total Fun.id in
  let order = Array.init total Fun.id in
  let due_of i = due.(i / per_client).(i mod per_client) in
  Array.sort (fun a b -> Float.compare (due_of a) (due_of b)) order;
  for j = 1 to total - 1 do
    let prev = order.(j - 1) in
    if keys.(prev) = prev && Random.State.float rng 1.0 < repeat_share then keys.(order.(j)) <- keys.(prev)
  done;
  let start = ref 0L in
  let started () = if !start = 0L then start := now () in
  let at_s t = Obs.Clock.ns_to_s (Int64.to_int (Int64.sub t !start)) in
  let lags = Array.make total 0.0 and sent = ref 0 and last_sent = ref 0.0 in
  let pending_due : (int, float) Hashtbl.t = Hashtbl.create 1024 in
  let queue = ref [] and bad = ref 0 in
  let body = Tracer.create 0 in
  let wl =
    {
      Service.arrivals = per_client;
      gap =
        (fun c k ->
          started ();
          Float.max 0.0 (due.(c).(k) -. at_s (now ())));
      job_of =
        (fun i ->
          let t = at_s (now ()) in
          lags.(i) <- t -. due_of i;
          incr sent;
          last_sent := t;
          let key = keys.(i) in
          if not (Hashtbl.mem pending_due key) then Hashtbl.replace pending_due key (due_of i);
          key);
      run =
        (fun key ->
          (match Hashtbl.find_opt pending_due key with
          | Some d ->
              Hashtbl.remove pending_due key;
              queue := (at_s (now ()) -. d) :: !queue
          | None -> ());
          let input = body_input ~seed ~n:body_n key in
          let out =
            if traced then Tracer.span body "kernel.body" (fun () -> Algorithms.Seq_kernels.quicksort input)
            else Algorithms.Seq_kernels.quicksort input
          in
          let ok =
            Algorithms.Seq_kernels.is_sorted out
            && Array.fold_left ( + ) 0 out = Array.fold_left ( + ) 0 input
          in
          if not ok then incr bad;
          ok);
      flops = (fun _ -> 0);
    }
  in
  let cfg =
    Service.default ~clients ~queue_bound:512 ~batch:4 ~admission:Service.Shed ~grace:2.0 ()
  in
  let c0 = cpu_s () in
  let report, stats = Service.run_multicore ~domains:1 ~procs:service_procs cfg wl in
  let cpu = cpu_s () -. c0 in
  let first_due = Array.fold_left (fun acc d -> Float.min acc d.(0)) Float.infinity due in
  {
    report;
    stats;
    bad = !bad;
    expected = total;
    lags;
    queue = Array.of_list !queue;
    offered = float_of_int (!sent - 1) /. Float.max 1e-9 (!last_sent -. first_due);
    cpu;
    body;
  }

(* Failed submissions: shed, lost, duplicated or re-dealt work, and job
   bodies whose output was wrong. *)
let session_failed s =
  let r = s.report in
  r.rejected + s.bad + r.redeals + r.dup_results
  + abs (s.expected - r.submitted)
  + abs (r.submitted - (r.completed + r.rejected))

let service_workload ~rate ~sizes ~seed ~seconds ~trace =
  let body_n = sizes.body_n in
  let warm, setup_s =
    timed_setup ~reps:setup_reps (fun () ->
        session ~rate ~seconds:sizes.warmup_s ~seed:(seed + 1_000_003) ~body_n ~traced:false)
  in
  if session_failed warm > 0 then failwith "service: warm-up session failed its checks";
  let diag ss =
    let sum f = List.fold_left (fun acc s -> acc + f s) 0 ss in
    [
      ("requests", J.Int (sum (fun s -> s.report.submitted)));
      ("latency_samples", J.Int (sum (fun s -> s.report.completed)));
      ("lag_s.p99", J.Float (quantile 0.99 (Array.concat (List.map (fun s -> s.lags) ss))));
      ("offered_per_s", J.Float (median (Array.of_list (List.map (fun s -> s.offered) ss))));
      ("latency_s.p95", J.List (List.map (fun s -> J.Float s.report.p95) ss));
      ("latency_s.p99", J.List (List.map (fun s -> J.Float s.report.p99) ss));
      ("coalesced", J.Int (sum (fun s -> s.report.coalesced)));
      ("rejected", J.Int (sum (fun s -> s.report.rejected)));
      ("redeals", J.Int (sum (fun s -> s.report.redeals)));
      ("dup_results", J.Int (sum (fun s -> s.report.dup_results)));
      ("bad_outputs", J.Int (sum (fun s -> s.bad)));
    ]
  in
  if trace then begin
    let half = seconds /. 2.0 in
    let plain = session ~rate ~seconds:half ~seed ~body_n ~traced:false in
    let t = session ~rate ~seconds:half ~seed ~body_n ~traced:true in
    let n = float_of_int t.report.submitted in
    let r = t.report in
    let given =
      [
        ( "kernel.body_s",
          Obs.Clock.ns_to_s (Tracer.busy_ns t.body "kernel.body")
          /. float_of_int (max 1 (Tracer.calls t.body "kernel.body")) );
        ( "kernel.share",
          Obs.Clock.ns_to_s (Tracer.busy_ns t.body "kernel.body")
          /. (t.stats.wall *. float_of_int t.stats.domains_used) );
        ("fabric.msgs", float_of_int t.stats.total_msgs /. n);
        ("mc.sleeps", float_of_int t.stats.sleeps /. n);
        ("service.queue_s.p50", quantile 0.5 t.queue);
        ("service.queue_s.p99", quantile 0.99 t.queue);
        ("service.lag_s.p99", quantile 0.99 t.lags);
        ("service.offered_per_s", t.offered);
        ("service.batches", float_of_int r.batches /. n);
        ("service.coalesced", float_of_int r.coalesced /. n);
        ("service.redeals", float_of_int r.redeals /. n);
        ("service.max_queue_depth", float_of_int r.max_queue_depth);
        ("tracing.overhead", r.p50 /. plain.report.p50);
      ]
    in
    let failed = session_failed plain + session_failed t in
    {
      attempted = plain.expected + t.expected;
      failed;
      correct = plain.bad + t.bad = 0;
      metrics = layer_metrics given;
      diag = diag [ plain; t ];
    }
  end
  else begin
    (* Several short sessions, each on its own seeded schedule, with
       three reference runs before the first and after each. A session's
       latency p50 is scaled by the mean of its two neighbours' median
       reference time, and [job_s.steady] is the median over sessions;
       CPU time is scaled by the mean reference CPU time. Over six seeds
       in a drifting host period the quartile distance of the scaled p50
       was 0.083 of its median where the raw one's was 0.127; in a steady
       period they were alike (0.065 and 0.059). Set-up stays in wall
       seconds: its warm-up session mostly waits for arrivals. The p95
       and p99 are only diagnostics: a request lasts ~0.2 ms, so when the
       host deschedules this process for milliseconds at a time, which it
       did for minutes on end, every session's p95 rose from 0.35 to 1-3
       ms while the p50 held. *)
    let ref_k = ref_kernel One_domain ~keys:1000 ~reps:sizes.ref_reps in
    let references () = Array.init 3 (fun _ -> reference ref_k) in
    let refs = Array.make (service_sessions + 1) [||] in
    refs.(0) <- references ();
    let ss =
      Array.init service_sessions (fun i ->
          let s =
            session ~rate ~seconds:(seconds /. float_of_int service_sessions) ~seed:(seed + (7919 * i)) ~body_n
              ~traced:false
          in
          refs.(i + 1) <- references ();
          s)
    in
    let ref_wall i = median (Array.map (fun r -> r.ref_wall) refs.(i)) in
    let all_refs = Array.concat (Array.to_list refs) in
    let mean_ref_cpu =
      Array.fold_left (fun acc r -> acc +. r.ref_cpu) 0.0 all_refs /. float_of_int (Array.length all_refs)
    in
    let sum f = Array.fold_left (fun acc s -> acc + f s) 0 ss in
    let med f = median (Array.map f ss) in
    let submitted = sum (fun s -> s.report.submitted) in
    let duration = Array.fold_left (fun acc s -> acc +. s.report.duration) 0.0 ss in
    let cpu = Array.fold_left (fun acc s -> acc +. s.cpu) 0.0 ss /. float_of_int (max 1 submitted) in
    {
      attempted = sum (fun s -> s.expected);
      failed = sum session_failed;
      correct = sum (fun s -> s.bad) = 0;
      metrics =
        [
          ("setup_s", setup_s, "s");
          ( "job_s.steady",
            median (Array.mapi (fun i s -> normalised s.report.p50 ((ref_wall i +. ref_wall (i + 1)) /. 2.0)) ss),
            "s" );
          (* the completion rate of an open loop follows the offered rate *)
          ("jobs_per_s", float_of_int (sum (fun s -> s.report.completed)) /. duration, "1/s");
          ("cpu_s_per_job", normalised cpu mean_ref_cpu, "s");
          ("peak_rss_mb", peak_rss_mb (), "MB");
        ];
      diag =
        ("sessions", J.Int service_sessions)
        :: ("latency_s.p50", J.Float (med (fun s -> s.report.p50)))
        :: ("cpu_s_per_job.raw", J.Float cpu)
        :: ("reference_s.p50", J.Float (median (Array.map (fun r -> r.ref_wall) all_refs)))
        :: diag (Array.to_list ss);
    }
  end

(* ------------------------------------------------------------ main *)

let workloads = [ "sort"; "sort-procs"; "solve"; "service" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 and tiny = ref false in
  let rate = ref 0.0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 1: traced per-layer run, 0: end-to-end run");
      ("--tiny", Arg.Set tiny, " smoke-test sizes");
      ("--rate", Arg.Set_float rate, " service offered rate in requests/s (overrides the workload's)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1 [--tiny]";
  let sizes = if !tiny then tiny_sizes else full_sizes in
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  let steal0, total0 = cpu_jiffies () in
  let run () =
    match !workload with
    | "sort" -> sort_workload ~procs_engine:false ~sizes ~seed ~seconds ~trace
    | "sort-procs" -> sort_workload ~procs_engine:true ~sizes ~seed ~seconds ~trace
    | "solve" -> solve_workload ~sizes ~seed ~seconds ~trace
    | "service" -> service_workload ~rate:(if !rate > 0.0 then !rate else service_rate) ~sizes ~seed ~seconds ~trace
    | w -> raise (Arg.Bad ("unknown workload " ^ w))
  in
  match run () with
  | r ->
      let steal1, total1 = cpu_jiffies () in
      let steal =
        if total1 > total0 then float_of_int (steal1 - steal0) /. float_of_int (total1 - total0) else 0.0
      in
      emit
        {
          r with
          diag =
            ("workload", J.String !workload)
            :: ("nproc", J.Int (Domain.recommended_domain_count ()))
            :: ("cpu_steal_share", J.Float steal)
            :: r.diag;
        }
  | exception Fork_after_domain msg ->
      prerr_endline ("Fork_after_domain: " ^ msg);
      exit 3
  | exception e ->
      prerr_endline ("benchmark failed: " ^ Printexc.to_string e);
      exit 1
