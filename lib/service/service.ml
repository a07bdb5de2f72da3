(* A long-lived skeleton service: the crash-tolerant dynamic farm grown
   into a server that ingests a *stream* of jobs while it runs.

   Rank layout (master-centred star, like the farm):

     rank 0              the service master: admission, queueing, batching,
                         dispatch, failure detection, latency accounting
     ranks 1..clients    producers: each paces an arrival process with
                         [Comm.sleep] and submits jobs upstream
     the rest            workers: request/compute/reply, with optional
                         scheduled leave/rejoin (elastic membership)

   What the master adds over the farm's dealer:

   - bounded ingress queue: admitted-but-undealt jobs; depth never exceeds
     [queue_bound].
   - admission control at the bound: [Block] parks the submission (and the
     submitting client, which awaits an ack — closed-loop backpressure);
     [Shed] rejects it immediately and loudly (open loop keeps arriving).
   - coalescing: a submission whose job key is already pending (queued or
     dealt) attaches to it instead of occupying queue space — one
     execution, every attached submission gets the result's latency.
   - batching: a requesting worker receives up to [batch] queued jobs in
     one message, amortising the per-message round trip.
   - elastic membership: workers may announce a graceful [Leave] (away for
     a while, or permanent) and rejoin by simply requesting again;
     fail-stop crashes (Chaos) are absorbed by the farm's at-least-once
     machinery: outstanding jobs are re-dealt to idle workers after a
     silent [grace], duplicate results are dropped by job key.
   - per-request latency: each submission carries its issue time; the
     master records (completion - issue) per attached submission, exactly
     (raw samples for the report's percentiles) and into the
     ["service.latency_us"] obs histogram.

   Failure detection keeps the farm's contract: [grace] must dominate the
   longest batch (plus a round trip) and any scheduled away time.  Then a
   master timeout means no live worker exists: with work outstanding, no
   idle worker parked and nobody away, completion is impossible and the
   master fails loudly.  A timeout with an empty service is a benign lull
   (slow producers), and with members away the master keeps waiting.
   A rank scheduled to leave must not also be crash-scheduled inside its
   away window — the master would wait for a rejoin that never comes. *)

open Machine

type admission = Block | Shed

type leave_spec = {
  after_jobs : int;  (* leave once this many jobs are processed (>= 1) *)
  away : float;  (* seconds before rejoining *)
  permanent : bool;  (* never rejoin *)
}

type config = {
  clients : int;
  queue_bound : int;
  batch : int;
  admission : admission;
  grace : float option;
  leaves : (int * leave_spec) list;  (* worker rank -> scheduled leave *)
}

let default ?(clients = 1) ?(queue_bound = 64) ?(batch = 4) ?(admission = Block) ?grace
    ?(leaves = []) () =
  { clients; queue_bound; batch; admission; grace; leaves }

type 'r workload = {
  arrivals : int;  (* submissions per client *)
  gap : int -> int -> float;  (* client (0-based), arrival index -> pre-submit idle *)
  job_of : int -> int;  (* global submission index -> job key (collisions coalesce) *)
  run : int -> 'r;  (* executed on the worker's host; deterministic *)
  flops : int -> int;  (* simulated cost of one job *)
}

type report = {
  submitted : int;
  accepted : int;  (* distinct jobs admitted to the queue *)
  coalesced : int;  (* submissions attached to an already-pending job *)
  rejected : int;  (* submissions shed at the bound *)
  completed : int;  (* submissions whose result was produced *)
  batches : int;
  redeals : int;
  dup_results : int;
  joins : int;
  leaves : int;
  max_queue_depth : int;
  duration : float;
  throughput : float;  (* completed submissions per engine-clock second *)
  mean_latency : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max_latency : float;
}

(* ------------------------------------------------------------------ wire *)

let tag_to_master = 7101
let tag_ack = 7102
let tag_batch = 7103

type 'r to_master =
  | Submit of { slot : int; key : int; issued : float }
  | Eos
  | Request
  | Result of (int * 'r) list  (* (key, value) per job of the batch *)
  | Leave of bool  (* permanent? *)

type batch_msg = Batch of int list | Pill

(* ------------------------------------------------------------------- obs *)

let obs_submitted = Obs.Counter.make "service.submitted"
let obs_accepted = Obs.Counter.make "service.accepted"
let obs_coalesced = Obs.Counter.make "service.coalesced"
let obs_rejected = Obs.Counter.make "service.rejected"
let obs_batches = Obs.Counter.make "service.batches"
let obs_redeals = Obs.Counter.make "service.redeals"
let obs_dups = Obs.Counter.make "service.dup_results"
let obs_joins = Obs.Counter.make "service.joins"
let obs_leaves = Obs.Counter.make "service.leaves"
let obs_latency = Obs.Histogram.make ~unit_:"us" "service.latency_us"

(* ----------------------------------------------------------- percentiles *)

(* Exact nearest-rank percentile over the raw master-side samples; the obs
   histogram is the cheap always-on view, this is the report's truth. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

(* ---------------------------------------------------------------- master *)

type pending_entry = { mutable slots : float list (* issue stamps *); mutable dealt : bool }

let master (cfg : config) (wl : 'r workload) (comm : Comm.t) : report =
  let p = Comm.size comm in
  let first_worker = cfg.clients + 1 in
  let t0 = Comm.time comm in
  (* state *)
  let queued : int Queue.t = Queue.create () in
  let pending : (int, pending_entry) Hashtbl.t = Hashtbl.create 64 in
  let blocked : (int * int * float) Queue.t = Queue.create () (* src, key, issued *) in
  let idle : int Queue.t = Queue.create () in
  let outstanding : int Queue.t = Queue.create () in
  let away = Array.make p false in
  let released = Array.make p true in
  for r = first_worker to p - 1 do
    released.(r) <- false
  done;
  let eos_seen = ref 0 in
  (* tallies *)
  let submitted = ref 0 and accepted = ref 0 and coalesced = ref 0 in
  let rejected = ref 0 and completed = ref 0 and batches = ref 0 in
  let redeals = ref 0 and dups = ref 0 and joins = ref 0 and leaves = ref 0 in
  let max_depth = ref 0 in
  let samples : float list ref = ref [] in
  let away_count () = Array.fold_left (fun a b -> if b then a + 1 else a) 0 away in
  let all_done () =
    !eos_seen = cfg.clients && Queue.is_empty queued && Queue.is_empty blocked
    && Hashtbl.length pending = 0
  in
  let work_left () =
    (not (Queue.is_empty queued)) || (not (Queue.is_empty blocked)) || Hashtbl.length pending > 0
  in
  let ack dst = Comm.send comm ~dest:dst ~tag:tag_ack () in
  let admit key issued =
    Hashtbl.replace pending key { slots = [ issued ]; dealt = false };
    Queue.push key queued;
    incr accepted;
    Obs.Counter.incr obs_accepted;
    if Queue.length queued > !max_depth then max_depth := Queue.length queued
  in
  (* Pop up to [batch] queued jobs for [dst]; afterwards admit parked
     submissions into the space just freed (acking their clients). *)
  let deal dst =
    (* A queued key can have been satisfied before being popped (re-dealt
       under churn, or coalesced with an earlier incarnation): skip those
       instead of dispatching ghosts. *)
    let rec take n acc =
      if n = 0 || Queue.is_empty queued then List.rev acc
      else
        let k = Queue.pop queued in
        match Hashtbl.find_opt pending k with
        | Some e when not e.dealt ->
            e.dealt <- true;
            Queue.push k outstanding;
            take (n - 1) (k :: acc)
        | _ -> take n acc
    in
    let keys = take cfg.batch [] in
    if keys = [] then Queue.push dst idle
    else begin
      incr batches;
      Obs.Counter.incr obs_batches;
      Comm.send comm ~dest:dst ~tag:tag_batch (Batch keys)
    end;
    let rec refill () =
      if Queue.length queued < cfg.queue_bound && not (Queue.is_empty blocked) then begin
        let src, key, issued = Queue.pop blocked in
        (match Hashtbl.find_opt pending key with
        | Some e ->
            (* admitted by someone else while this one was parked *)
            e.slots <- issued :: e.slots;
            incr coalesced;
            Obs.Counter.incr obs_coalesced
        | None -> admit key issued);
        ack src;
        refill ()
      end
    in
    refill ()
  in
  let try_deal () =
    while (not (Queue.is_empty idle)) && not (Queue.is_empty queued) do
      deal (Queue.pop idle)
    done
  in
  (* Oldest dealt-but-unfinished job, rotated to the back (farm-style). *)
  let pick_outstanding () =
    let rec pick () =
      match Queue.take_opt outstanding with
      | Some k when not (Hashtbl.mem pending k) -> pick ()
      | other -> other
    in
    pick ()
  in
  let redeal dst =
    match pick_outstanding () with
    | Some k ->
        Queue.push k outstanding;
        incr redeals;
        Obs.Counter.incr obs_redeals;
        incr batches;
        Obs.Counter.incr obs_batches;
        Comm.send comm ~dest:dst ~tag:tag_batch (Batch [ k ])
    | None -> Queue.push dst idle
  in
  let redeal_to_idle () =
    let n = Queue.length idle in
    for _ = 1 to n do
      if Hashtbl.length pending > 0 then redeal (Queue.pop idle)
    done
  in
  let drain_mode () =
    !eos_seen = cfg.clients && Queue.is_empty queued && Queue.is_empty blocked
    && Hashtbl.length pending > 0
  in
  let pill dst =
    Comm.send comm ~dest:dst ~tag:tag_batch Pill;
    released.(dst) <- true
  in
  let handle_submit src slot key issued =
    ignore slot;
    incr submitted;
    Obs.Counter.incr obs_submitted;
    match Hashtbl.find_opt pending key with
    | Some e ->
        e.slots <- issued :: e.slots;
        incr coalesced;
        Obs.Counter.incr obs_coalesced;
        if cfg.admission = Block then ack src
    | None ->
        if Queue.length queued < cfg.queue_bound then begin
          admit key issued;
          if cfg.admission = Block then ack src;
          try_deal ()
        end
        else begin
          match cfg.admission with
          | Shed ->
              incr rejected;
              Obs.Counter.incr obs_rejected
          | Block -> Queue.push (src, key, issued) blocked
        end
  in
  let handle_result items =
    let now = Comm.time comm in
    List.iter
      (fun (key, _v) ->
        match Hashtbl.find_opt pending key with
        | None ->
            incr dups;
            Obs.Counter.incr obs_dups
        | Some e ->
            Hashtbl.remove pending key;
            List.iter
              (fun issued ->
                let lat = now -. issued in
                samples := lat :: !samples;
                incr completed;
                Obs.Histogram.record obs_latency (int_of_float (lat *. 1e6)))
              e.slots)
      items
  in
  let handle_leave src permanent =
    incr leaves;
    Obs.Counter.incr obs_leaves;
    if permanent then released.(src) <- true else away.(src) <- true
  in
  let handle_request src =
    if away.(src) then begin
      away.(src) <- false;
      incr joins;
      Obs.Counter.incr obs_joins
    end;
    if all_done () then pill src
    else begin
      Queue.push src idle;
      try_deal ();
      if drain_mode () then redeal_to_idle ()
    end
  in
  (* ---- serve until every accepted job has a result and producers are done *)
  while not (all_done ()) do
    match (Comm.recv_any comm ~tag:tag_to_master ?timeout:cfg.grace () : int * 'r to_master) with
    | src, Submit { slot; key; issued } -> handle_submit src slot key issued
    | _, Eos -> incr eos_seen
    | src, Request -> handle_request src
    | _, Result items -> handle_result items
    | src, Leave permanent -> handle_leave src permanent
    | exception Fault.Timeout _ ->
        let have_dealt = Hashtbl.fold (fun _ e acc -> acc || e.dealt) pending false in
        if have_dealt && not (Queue.is_empty idle) then redeal_to_idle ()
        else if work_left () && Queue.is_empty idle && away_count () = 0 then
          failwith "Service: all workers lost (no traffic within grace)"
        (* else: benign lull — slow producers, or members away *)
  done;
  let t_end = Comm.time comm in
  (* ---- drain: release parked workers, then wait out the stragglers *)
  while not (Queue.is_empty idle) do
    pill (Queue.pop idle)
  done;
  (try
     while Array.exists not released do
       match (Comm.recv_any comm ~tag:tag_to_master ?timeout:cfg.grace () : int * 'r to_master) with
       | src, Request ->
           (* A rejoin landing in the drain gets a pill — and must clear its
              away flag, or the timeout branch below waits forever for a
              member it has already released. *)
           if away.(src) then begin
             away.(src) <- false;
             incr joins;
             Obs.Counter.incr obs_joins
           end;
           pill src
       | _, Result items -> handle_result items (* late duplicates *)
       | src, Leave permanent -> handle_leave src permanent
       | _, (Submit _ | Eos) -> ()
       | exception Fault.Timeout _ ->
           (* members away will rejoin (grace dominates away time); total
              silence with nobody away means the rest crashed — abandon *)
           if away_count () = 0 then raise Exit
     done
   with Exit -> ());
  let sorted = Array.of_list !samples in
  Array.sort compare sorted;
  let duration = t_end -. t0 in
  let sum = Array.fold_left ( +. ) 0.0 sorted in
  {
    submitted = !submitted;
    accepted = !accepted;
    coalesced = !coalesced;
    rejected = !rejected;
    completed = !completed;
    batches = !batches;
    redeals = !redeals;
    dup_results = !dups;
    joins = !joins;
    leaves = !leaves;
    max_queue_depth = !max_depth;
    duration;
    throughput = (if duration > 0.0 then float_of_int !completed /. duration else 0.0);
    mean_latency = (if !completed > 0 then sum /. float_of_int !completed else 0.0);
    p50 = percentile sorted 0.50;
    p95 = percentile sorted 0.95;
    p99 = percentile sorted 0.99;
    max_latency = (if Array.length sorted = 0 then 0.0 else sorted.(Array.length sorted - 1));
  }

(* ---------------------------------------------------------------- client *)

let client (cfg : config) (wl : 'r workload) (comm : Comm.t) =
  let c = Comm.rank comm - 1 in
  for k = 0 to wl.arrivals - 1 do
    Comm.sleep comm (wl.gap c k);
    let key = wl.job_of ((c * wl.arrivals) + k) in
    let issued = Comm.time comm in
    Comm.send comm ~dest:0 ~tag:tag_to_master
      (Submit { slot = (c * wl.arrivals) + k; key; issued } : 'r to_master);
    (* Closed loop: wait to be admitted before producing more (the queue
       bound propagates upstream).  Open loop (Shed): keep arriving. *)
    match cfg.admission with
    | Block -> (Comm.recv comm ~src:0 ~tag:tag_ack () : unit)
    | Shed -> ()
  done;
  Comm.send comm ~dest:0 ~tag:tag_to_master (Eos : 'r to_master)

(* ---------------------------------------------------------------- worker *)

let worker (cfg : config) (wl : 'r workload) (comm : Comm.t) =
  let me = Comm.rank comm in
  let sess = List.assoc_opt me cfg.leaves in
  let jobs_done = ref 0 in
  let left_once = ref false in
  let continue_ = ref true in
  while !continue_ do
    Comm.send comm ~dest:0 ~tag:tag_to_master (Request : 'r to_master);
    match (Comm.recv comm ~src:0 ~tag:tag_batch () : batch_msg) with
    | Pill -> continue_ := false
    | Batch keys ->
        Comm.work_flops comm (List.fold_left (fun a k -> a + wl.flops k) 0 keys);
        let items = List.map (fun k -> (k, wl.run k)) keys in
        Comm.send comm ~dest:0 ~tag:tag_to_master (Result items : 'r to_master);
        jobs_done := !jobs_done + List.length keys;
        (match sess with
        | Some s when (not !left_once) && !jobs_done >= s.after_jobs ->
            left_once := true;
            Comm.send comm ~dest:0 ~tag:tag_to_master (Leave s.permanent : 'r to_master);
            if s.permanent then continue_ := false else Comm.sleep comm s.away
        | _ -> ())
  done

(* ------------------------------------------------------------------- run *)

let program (cfg : config) (wl : 'r workload) (comm : Comm.t) : report option =
  let me = Comm.rank comm in
  if me = 0 then Some (master cfg wl comm)
  else if me <= cfg.clients then begin
    client cfg wl comm;
    None
  end
  else begin
    worker cfg wl comm;
    None
  end

let validate (cfg : config) (wl : 'r workload) ~procs =
  if cfg.clients < 1 then invalid_arg "Service: needs at least one client";
  if procs < cfg.clients + 2 then
    invalid_arg "Service: needs a master, the clients and at least one worker";
  if cfg.queue_bound < 1 then invalid_arg "Service: queue_bound must be >= 1";
  if cfg.batch < 1 then invalid_arg "Service: batch must be >= 1";
  (match cfg.grace with
  | Some g when g <= 0.0 -> invalid_arg "Service: grace must be > 0"
  | _ -> ());
  List.iter
    (fun (r, s) ->
      if r <= cfg.clients || r >= procs then invalid_arg "Service: leave rank is not a worker";
      if s.after_jobs < 1 then invalid_arg "Service: leave after_jobs must be >= 1";
      if s.away < 0.0 then invalid_arg "Service: negative away time")
    cfg.leaves;
  if wl.arrivals < 0 then invalid_arg "Service: negative arrivals"

let run backend ?chaos ~procs (cfg : config) (wl : 'r workload) =
  validate cfg wl ~procs;
  Scl_sim.Spmd.run backend ?chaos ~procs (program cfg wl)

(* Pinned by the steady benchmark, which calls this exact name. *)
let run_multicore ?domains = run (Backend.multicore ?domains ())

(* ------------------------------------------------------------------ JSON *)

let report_to_json (r : report) : Obs.Json.t =
  Obs.Json.Obj
    [
      ("submitted", Obs.Json.Int r.submitted);
      ("accepted", Obs.Json.Int r.accepted);
      ("coalesced", Obs.Json.Int r.coalesced);
      ("rejected", Obs.Json.Int r.rejected);
      ("completed", Obs.Json.Int r.completed);
      ("batches", Obs.Json.Int r.batches);
      ("redeals", Obs.Json.Int r.redeals);
      ("dup_results", Obs.Json.Int r.dup_results);
      ("joins", Obs.Json.Int r.joins);
      ("leaves", Obs.Json.Int r.leaves);
      ("max_queue_depth", Obs.Json.Int r.max_queue_depth);
      ("duration_s", Obs.Json.Float r.duration);
      ("jobs_per_s", Obs.Json.Float r.throughput);
      ("mean_latency_s", Obs.Json.Float r.mean_latency);
      ("p50_s", Obs.Json.Float r.p50);
      ("p95_s", Obs.Json.Float r.p95);
      ("p99_s", Obs.Json.Float r.p99);
      ("max_latency_s", Obs.Json.Float r.max_latency);
    ]
