(* Deterministic discrete-event simulator of a distributed-memory machine.

   Each virtual processor is a coroutine (an OCaml 5 fiber).  Non-blocking
   actions (send, work, sleep, time, note) mutate the simulator state
   directly; the blocking actions (recv — always, even when a matching
   packet is already buffered — and barrier) are performed as effects so
   the scheduler can capture the continuation and arbitrate globally over
   who acts next.

   Timing model (all per-processor clocks, in seconds):
   - [work d]            : clock += d
   - [send]              : clock += send_overhead; the packet's arrival time
                           is clock + alpha + hops*per_hop + bytes*beta
   - [recv]              : clock = max clock arrival + recv_overhead
   - [barrier]           : all clocks := max over processors + barrier cost
   Link contention is not modelled (see DESIGN.md).

   Message payloads are marshalled by default, which (a) gives the cost
   model the true byte size and (b) deep-copies the value, so processors
   cannot accidentally share mutable state.  Passing [~bytes] skips the
   marshalling and shares the value by reference (zero-copy fast path; the
   caller promises not to mutate it afterwards).

   The scheduler is deterministic: among runnable processors it always picks
   the one with the smallest (clock, rank), and receive matching is FIFO per
   (source, tag).  [recv_any] — inherently nondeterministic on a real
   machine — is resolved as "earliest arrival, then lowest source rank". *)

type config = { procs : int; topology : Topology.t; cost : Cost_model.t }

exception Deadlock of string

type packet = {
  pkt_src : int;
  pkt_tag : int;
  payload : Obj.t;
  marshalled : bool;
  bytes : int;
  arrival : float;
  pkt_seq : int;
}

type blocked =
  | Not_blocked
  | On_recv of {
      want_src : int option;
      want_tag : int option;
      deadline : float option;  (* absolute simulated time; None = wait forever *)
      k : (packet, unit) Effect.Deep.continuation;
    }
  | On_barrier of (unit, unit) Effect.Deep.continuation

type proc = {
  rank : int;
  mutable clock : float;
  mutable inbox : packet list;  (* in global send order; newest last *)
  mutable blocked : blocked;
  mutable thunk : (unit -> unit) option;
  mutable finished : bool;
  mutable crashed : bool;  (* fail-stopped via Fault.Crashed *)
  mutable work_time : float;
  mutable msgs_sent : int;
  mutable bytes_sent : int;
  mutable msgs_recvd : int;
  mutable barrier_count : int;
}

type t = {
  cfg : config;
  procs : proc array;
  trace : Trace.t;
  mutable seq : int;
}

type ctx = { sim : t; me : proc }

type stats = {
  makespan : float;
  finish_times : float array;
  work_times : float array;
  total_msgs : int;
  total_bytes : int;
  barriers : int;
}

type _ Effect.t +=
  | E_recv : {
      want_src : int option;
      want_tag : int option;
      deadline : float option;
    }
      -> packet Effect.t
  | E_barrier : unit Effect.t

(* --- program-side API ------------------------------------------------- *)

let rank ctx = ctx.me.rank
let size ctx = ctx.sim.cfg.procs
let time ctx = ctx.me.clock
let cost ctx = ctx.sim.cfg.cost
let topology ctx = ctx.sim.cfg.topology

let work ctx d =
  if d < 0.0 then invalid_arg "Sim.work: negative duration";
  ctx.me.clock <- ctx.me.clock +. d;
  ctx.me.work_time <- ctx.me.work_time +. d;
  Trace.record ctx.sim.trace ~time:ctx.me.clock ~proc:ctx.me.rank (Trace.Work d)

let work_flops ctx n = work ctx (Cost_model.flops ctx.sim.cfg.cost n)

(* Idle time: the clock moves but [work_time] does not, so imbalance
   diagnostics keep meaning "compute skew", not "who slept". *)
let sleep ctx d =
  if d < 0.0 then invalid_arg "Sim.sleep: negative duration";
  ctx.me.clock <- ctx.me.clock +. d

let note ctx msg = Trace.record ctx.sim.trace ~time:ctx.me.clock ~proc:ctx.me.rank (Trace.Note msg)

let check_dest ctx dest name =
  if dest < 0 || dest >= ctx.sim.cfg.procs then
    invalid_arg (Printf.sprintf "Sim.%s: rank %d out of range [0,%d)" name dest ctx.sim.cfg.procs)

let send : type a. ctx -> dest:int -> ?tag:int -> ?bytes:int -> a -> unit =
 fun ctx ~dest ?(tag = 0) ?bytes v ->
  check_dest ctx dest "send";
  if dest = ctx.me.rank then invalid_arg "Sim.send: self-send is not supported (use a local value)";
  let sim = ctx.sim in
  let c = sim.cfg.cost in
  let payload, marshalled, nbytes =
    match bytes with
    | Some b ->
        if b < 0 then invalid_arg "Sim.send: negative size";
        (Obj.repr v, false, b)
    | None ->
        let m = Marshal.to_bytes v [] in
        (Obj.repr m, true, Bytes.length m)
  in
  ctx.me.clock <- ctx.me.clock +. c.Cost_model.send_overhead;
  let hops = Topology.hops sim.cfg.topology ~procs:sim.cfg.procs ~src:ctx.me.rank ~dest in
  let arrival = ctx.me.clock +. Cost_model.transfer_time c ~hops ~bytes:nbytes in
  let pkt =
    { pkt_src = ctx.me.rank; pkt_tag = tag; payload; marshalled; bytes = nbytes; arrival; pkt_seq = sim.seq }
  in
  sim.seq <- sim.seq + 1;
  let dst = sim.procs.(dest) in
  dst.inbox <- dst.inbox @ [ pkt ];
  ctx.me.msgs_sent <- ctx.me.msgs_sent + 1;
  ctx.me.bytes_sent <- ctx.me.bytes_sent + nbytes;
  Trace.record sim.trace ~time:ctx.me.clock ~proc:ctx.me.rank (Trace.Send { dest; tag; bytes = nbytes })

let matches ~want_src ~want_tag pkt =
  (match want_src with None -> true | Some s -> pkt.pkt_src = s)
  && match want_tag with None -> true | Some t -> pkt.pkt_tag = t

(* MPI non-overtaking: per source, only the oldest (lowest send sequence)
   matching packet is eligible.  Among those per-source heads, pick the
   earliest arrival (ties by sequence) — a deterministic resolution of
   any-source receives.  With a [deadline], a head arriving later than the
   deadline is not eligible — and neither is any younger packet from the
   same source, even one arriving in time, because delivering it would
   violate non-overtaking. *)
let find_match p ~want_src ~want_tag ~deadline =
  let heads = Hashtbl.create 8 in
  List.iter
    (fun pkt ->
      if matches ~want_src ~want_tag pkt then
        match Hashtbl.find_opt heads pkt.pkt_src with
        | Some h when h.pkt_seq <= pkt.pkt_seq -> ()
        | Some _ | None -> Hashtbl.replace heads pkt.pkt_src pkt)
    p.inbox;
  let in_time pkt = match deadline with None -> true | Some d -> pkt.arrival <= d in
  Hashtbl.fold
    (fun _ pkt acc ->
      if not (in_time pkt) then acc
      else
        match acc with
        | Some b when (b.arrival, b.pkt_seq) <= (pkt.arrival, pkt.pkt_seq) -> acc
        | _ -> Some pkt)
    heads None

let remove_packet p pkt = p.inbox <- List.filter (fun q -> q.pkt_seq <> pkt.pkt_seq) p.inbox

let deliver sim (p : proc) pkt =
  remove_packet p pkt;
  p.clock <- Float.max p.clock pkt.arrival +. sim.cfg.cost.Cost_model.recv_overhead;
  p.msgs_recvd <- p.msgs_recvd + 1;
  Trace.record sim.trace ~time:p.clock ~proc:p.rank
    (Trace.Recv { src = pkt.pkt_src; tag = pkt.pkt_tag; bytes = pkt.bytes })

let decode : type a. packet -> a =
 fun pkt ->
  if pkt.marshalled then Marshal.from_bytes (Obj.obj pkt.payload : bytes) 0 else Obj.obj pkt.payload

let deadline_of ctx name = function
  | None -> None
  | Some timeout ->
      if timeout < 0.0 then invalid_arg (Printf.sprintf "Sim.%s: negative timeout" name);
      Some (ctx.me.clock +. timeout)

(* Every receive suspends into the scheduler, even when a matching packet
   is already in the inbox.  Delivering eagerly here would be unsound: a
   processor whose clock is still *behind* the packet's arrival may not
   have run yet, and could still produce an earlier-arriving match — the
   scheduler's global (event time, rank) order is what arbitrates that
   (see [choose]).  The classic symptom of the eager path was a receiver
   racing through a pre-filled inbox in one scheduling quantum while a
   lower-clock sender sat unstarted. *)
let recv_packet _ctx ~want_src ~want_tag ~deadline =
  Effect.perform (E_recv { want_src; want_tag; deadline })

let recv : type a. ctx -> src:int -> ?tag:int -> ?timeout:float -> unit -> a =
 fun ctx ~src ?tag ?timeout () ->
  check_dest ctx src "recv";
  let deadline = deadline_of ctx "recv" timeout in
  let pkt = recv_packet ctx ~want_src:(Some src) ~want_tag:tag ~deadline in
  decode pkt

let recv_any : type a. ctx -> ?tag:int -> ?timeout:float -> unit -> int * a =
 fun ctx ?tag ?timeout () ->
  let deadline = deadline_of ctx "recv_any" timeout in
  let pkt = recv_packet ctx ~want_src:None ~want_tag:tag ~deadline in
  (pkt.pkt_src, decode pkt)

let barrier ctx =
  Trace.record ctx.sim.trace ~time:ctx.me.clock ~proc:ctx.me.rank Trace.Barrier_enter;
  ctx.me.barrier_count <- ctx.me.barrier_count + 1;
  if ctx.sim.cfg.procs > 1 then Effect.perform E_barrier;
  Trace.record ctx.sim.trace ~time:ctx.me.clock ~proc:ctx.me.rank Trace.Barrier_leave

(* --- scheduler --------------------------------------------------------- *)

let make_handler sim p : (unit, unit) Effect.Deep.handler =
  {
    Effect.Deep.retc =
      (fun () ->
        p.finished <- true;
        Trace.record sim.trace ~time:p.clock ~proc:p.rank Trace.Finish);
    exnc =
      (fun e ->
        match e with
        | Fault.Crashed _ ->
            (* fail-stop: this rank ends here; the run continues *)
            p.finished <- true;
            p.crashed <- true;
            Trace.record sim.trace ~time:p.clock ~proc:p.rank (Trace.Note "crashed");
            Trace.record sim.trace ~time:p.clock ~proc:p.rank Trace.Finish
        | e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | E_recv { want_src; want_tag; deadline } ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                p.blocked <- On_recv { want_src; want_tag; deadline; k })
        | E_barrier -> Some (fun (k : (a, unit) Effect.Deep.continuation) -> p.blocked <- On_barrier k)
        | _ -> None)
  }

type action = Start of proc | Deliver of proc * packet | Expire of proc * float

(* Candidates are ordered by (event time, rank): a Start happens at the
   processor's clock, a Deliver at the moment the receiver actually gets
   the packet — max(clock, arrival) — and a timeout expiry at
   max(clock, deadline).  Executing only the globally smallest event keeps
   the simulation conservative: by the time a Deliver or Expire fires,
   every processor that could still produce an earlier-arriving matching
   send has clock >= that event time (a send's arrival strictly exceeds
   the sender's clock), so the packet picked by [find_match] really is the
   earliest, and an expiry really means no message can arrive in time. *)
let choose sim =
  let best = ref None in
  let consider p time act =
    match !best with
    | Some (q, t0, _) when (t0, q.rank) <= (time, p.rank) -> ()
    | _ -> best := Some (p, time, act)
  in
  Array.iter
    (fun p ->
      if not p.finished then
        match p.thunk with
        | Some _ -> consider p p.clock `Start
        | None -> (
            match p.blocked with
            | On_recv { want_src; want_tag; deadline; _ } -> (
                match find_match p ~want_src ~want_tag ~deadline with
                | Some pkt -> consider p (Float.max p.clock pkt.arrival) (`Deliver pkt)
                | None -> (
                    match deadline with
                    | Some d -> consider p (Float.max p.clock d) `Expire
                    | None -> ()))
            | On_barrier _ | Not_blocked -> ()))
    sim.procs;
  match !best with
  | None -> None
  | Some (p, _, `Start) -> Some (Start p)
  | Some (p, _, `Deliver pkt) -> Some (Deliver (p, pkt))
  | Some (p, t, `Expire) -> Some (Expire (p, t))

let describe_blocked sim =
  let buf = Buffer.create 128 in
  Array.iter
    (fun p ->
      if not p.finished then
        let state =
          match p.blocked with
          | On_recv { want_src; want_tag; _ } ->
              Printf.sprintf "recv(src=%s, tag=%s)"
                (match want_src with None -> "any" | Some s -> string_of_int s)
                (match want_tag with None -> "any" | Some t -> string_of_int t)
          | On_barrier _ -> "barrier"
          | Not_blocked -> ( match p.thunk with Some _ -> "not started" | None -> "running?")
        in
        Buffer.add_string buf (Printf.sprintf "p%d@%.6f: %s; " p.rank p.clock state))
    sim.procs;
  Buffer.contents buf

let release_barrier sim =
  let t_max = Array.fold_left (fun acc p -> Float.max acc p.clock) 0.0 sim.procs in
  let t_release = t_max +. Cost_model.barrier_time sim.cfg.cost ~procs:sim.cfg.procs in
  Array.iter
    (fun p ->
      p.clock <- t_release;
      match p.blocked with
      | On_barrier k ->
          p.blocked <- Not_blocked;
          Effect.Deep.continue k ()
      | Not_blocked | On_recv _ -> assert false)
    sim.procs

let schedule sim =
  let rec loop () =
    match choose sim with
    | Some (Start p) ->
        let thunk = Option.get p.thunk in
        p.thunk <- None;
        thunk ();
        loop ()
    | Some (Deliver (p, pkt)) ->
        let k = match p.blocked with On_recv { k; _ } -> k | _ -> assert false in
        p.blocked <- Not_blocked;
        deliver sim p pkt;
        Effect.Deep.continue k pkt;
        loop ()
    | Some (Expire (p, t)) ->
        let k, want_src, want_tag =
          match p.blocked with
          | On_recv { k; want_src; want_tag; _ } -> (k, want_src, want_tag)
          | _ -> assert false
        in
        p.blocked <- Not_blocked;
        p.clock <- t;
        Trace.record sim.trace ~time:p.clock ~proc:p.rank (Trace.Note "recv timeout");
        Effect.Deep.discontinue k
          (Fault.Timeout
             (Printf.sprintf "p%d: recv(src=%s, tag=%s) deadline %.6f elapsed" p.rank
                (match want_src with None -> "any" | Some s -> string_of_int s)
                (match want_tag with None -> "any" | Some t -> string_of_int t)
                t));
        loop ()
    | None ->
        if Array.for_all (fun p -> p.finished) sim.procs then ()
        else begin
          let at_barrier =
            Array.for_all (fun p -> p.finished || (match p.blocked with On_barrier _ -> true | _ -> false))
              sim.procs
          in
          let any_finished = Array.exists (fun p -> p.finished) sim.procs in
          if at_barrier && not any_finished then begin
            release_barrier sim;
            loop ()
          end
          else
            raise
              (Deadlock
                 (Printf.sprintf "no runnable processor%s: %s"
                    (if at_barrier then " (barrier with finished processors)" else "")
                    (describe_blocked sim)))
        end
  in
  loop ()

let fresh_proc rank =
  {
    rank;
    clock = 0.0;
    inbox = [];
    blocked = Not_blocked;
    thunk = None;
    finished = false;
    crashed = false;
    work_time = 0.0;
    msgs_sent = 0;
    bytes_sent = 0;
    msgs_recvd = 0;
    barrier_count = 0;
  }

let collect_stats sim =
  {
    makespan = Array.fold_left (fun acc p -> Float.max acc p.clock) 0.0 sim.procs;
    finish_times = Array.map (fun p -> p.clock) sim.procs;
    work_times = Array.map (fun p -> p.work_time) sim.procs;
    total_msgs = Array.fold_left (fun acc p -> acc + p.msgs_sent) 0 sim.procs;
    total_bytes = Array.fold_left (fun acc p -> acc + p.bytes_sent) 0 sim.procs;
    barriers = Array.fold_left (fun acc p -> max acc p.barrier_count) 0 sim.procs;
  }

(* Observability: one span around each whole simulation plus counters fed
   from the already-collected stats.  Nothing per-event — the simulator's
   inner loop stays untouched, and with obs disabled the only cost is one
   branch per run. *)
let obs_runs = Obs.Counter.make "sim.runs"
let obs_msgs = Obs.Counter.make "sim.msgs"
let obs_bytes = Obs.Counter.make "sim.bytes"
let obs_barriers = Obs.Counter.make "sim.barriers"
let obs_makespan = Obs.Histogram.make ~unit_:"us" "sim.makespan_us"
let obs_run_span = Obs.Span.make "sim.run_wall"

let publish_obs stats =
  if Obs.enabled () then begin
    Obs.Counter.incr obs_runs;
    Obs.Counter.add obs_msgs stats.total_msgs;
    Obs.Counter.add obs_bytes stats.total_bytes;
    Obs.Counter.add obs_barriers stats.barriers;
    Obs.Histogram.record obs_makespan (int_of_float (stats.makespan *. 1e6))
  end

let run_each ?trace cfg program =
  Obs.Span.timed obs_run_span (fun () ->
      Topology.validate cfg.topology ~procs:cfg.procs;
      let trace = match trace with Some t -> t | None -> Trace.disabled () in
      let sim = { cfg; procs = Array.init cfg.procs fresh_proc; trace; seq = 0 } in
      Array.iter
        (fun p ->
          let ctx = { sim; me = p } in
          p.thunk <- Some (fun () -> Effect.Deep.match_with (program p.rank) ctx (make_handler sim p)))
        sim.procs;
      schedule sim;
      (* Undelivered messages indicate a protocol bug worth surfacing —
         except in the inbox of a crashed processor: losing in-flight
         traffic is exactly what fail-stop means. *)
      Array.iter
        (fun p ->
          match p.inbox with
          | [] -> ()
          | _ when p.crashed -> ()
          | pkt :: _ ->
              raise
                (Deadlock
                   (Printf.sprintf
                      "processor %d finished with %d undelivered message(s); first from p%d tag %d"
                      p.rank (List.length p.inbox) pkt.pkt_src pkt.pkt_tag)))
        sim.procs;
      let stats = collect_stats sim in
      publish_obs stats;
      stats)

let run ?trace cfg program = run_each ?trace cfg (fun _rank -> program)

(* Convenience: run and also return a value computed by a processor —
   usually the root after a gather. When several produce one, the lowest
   rank's wins, whatever order the scheduler finished them in. *)
let run_collect ?trace (cfg : config) (program : ctx -> 'a option) : 'a * stats =
  let results = Array.make (max 0 cfg.procs) None in
  let stats = run_each ?trace cfg (fun rank ctx -> results.(rank) <- program ctx) in
  match Array.find_map Fun.id results with
  | Some v -> (v, stats)
  | None -> invalid_arg "Sim.run_collect: no processor produced a result"

(* Load-balance diagnostics over a run's statistics. *)
let mean_work stats =
  let n = Array.length stats.work_times in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 stats.work_times /. float_of_int n

let max_work stats = Array.fold_left Float.max 0.0 stats.work_times

(* max/mean compute time: 1.0 = perfectly balanced. *)
let imbalance stats =
  let mean = mean_work stats in
  if mean <= 0.0 then 1.0 else max_work stats /. mean

let pp_stats ppf stats =
  Format.fprintf ppf
    "@[<v>makespan %.6f s; %d msgs, %d bytes, %d barrier phase(s)@,\
     work: max %.6f s, mean %.6f s (imbalance %.2f)@]"
    stats.makespan stats.total_msgs stats.total_bytes stats.barriers (max_work stats)
    (mean_work stats) (imbalance stats)
