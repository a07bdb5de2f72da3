(* Deterministic discrete-event simulator of a distributed-memory machine.

   Each virtual processor is a coroutine (an OCaml 5 fiber) running its
   rank's program against an [Engine.t].  Non-blocking actions (send,
   work, sleep, time) mutate the simulator state directly; a
   receive — always, even when a matching packet is already buffered — is
   performed as an effect so the scheduler can capture the continuation
   and arbitrate globally over who acts next.

   Timing model (all per-processor clocks, in seconds):
   - [work d]            : clock += d, charged to the processor's work time
   - [sleep d]           : clock += d, not charged
   - [send]              : clock += send_overhead; the packet's arrival time
                           is clock + alpha + hops*per_hop + bytes*beta
   - [recv]              : clock = max clock arrival + recv_overhead
   A barrier is [Comm.barrier]'s ordinary messages, priced like any other
   traffic.  Link contention is not modelled (see DESIGN.md).

   A [send] marshals its payload, which (a) gives the cost model the true
   byte size and (b) deep-copies the value, so processors cannot
   accidentally share mutable state.  A [send_slice] is copied instead and
   priced at its unboxed [size_in_bytes] (8 bytes an element for both
   kinds, float64 and int).

   The scheduler is deterministic: among runnable processors it always picks
   the one with the smallest (clock, rank), and receive matching is FIFO per
   (source, tag) ([Mailbox]).  [recv_any] — inherently nondeterministic on
   a real machine — is resolved as "earliest arrival, then the older
   send". *)

type packet = { src : int; payload : Obj.t; marshalled : bool; arrival : float }

(* What fills a mailbox's empty slots. *)
let no_packet = { src = -1; payload = Obj.repr 0; marshalled = false; arrival = 0.0 }

(* A receive pattern is [Mailbox]'s: [want_src = -1] is any source. *)
type blocked =
  | Not_blocked
  | On_recv of {
      want_src : int;
      want_tag : int;
      any_tag : bool;
      deadline : float;  (* absolute simulated time; infinity = wait forever *)
      k : (packet, unit) Effect.Deep.continuation;
    }

type proc = {
  rank : int;
  mutable clock : float;
  inbox : packet Mailbox.t;  (* in send order *)
  mutable blocked : blocked;
  mutable thunk : (unit -> unit) option;
  mutable finished : bool;
  mutable crashed : bool;  (* fail-stopped via Fault.Crashed *)
  mutable work_time : float;
  mutable msgs_sent : int;
  mutable bytes_sent : int;
  mutable msgs_recvd : int;
}

type t = {
  size : int;
  topology : Topology.t;
  cost : Cost_model.t;
  procs : proc array;
}

type stats = {
  makespan : float;
  finish_times : float array;
  work_times : float array;
  total_msgs : int;
  total_bytes : int;
}

type _ Effect.t +=
  | E_recv : { want_src : int; want_tag : int; any_tag : bool; deadline : float } -> packet Effect.t

(* The operation names the contract's messages carry: "Sim.<op>". *)
let op name = "Sim." ^ name

let op_send = op "send"
let op_send_slice = op "send_slice"
let op_recv = op "recv"
let op_recv_slice = op "recv_slice"
let op_recv_any = op "recv_any"
let op_work = op "work"
let op_sleep = op "sleep"

(* --- the rank's primitives --------------------------------------------- *)

let work me d =
  Engine.check_duration op_work d;
  me.clock <- me.clock +. d;
  me.work_time <- me.work_time +. d

(* Idle time: the clock moves but [work_time] does not, so imbalance
   diagnostics keep meaning "compute skew", not "who slept". *)
let sleep me d =
  Engine.check_duration op_sleep d;
  me.clock <- me.clock +. d

(* With [~bytes] the value is shared by reference and priced at that size
   (only [send_slice], whose payload is already a private copy). *)
let send_as op sim me ~dest ~tag ?bytes v =
  Engine.check_dest op ~size:sim.size ~self:me.rank dest;
  let c = sim.cost in
  let payload, marshalled, nbytes =
    match bytes with
    | Some b -> (Obj.repr v, false, b)
    | None ->
        let m = Marshal.to_bytes v [] in
        (Obj.repr m, true, Bytes.length m)
  in
  me.clock <- me.clock +. c.Cost_model.send_overhead;
  let hops = Topology.hops sim.topology ~procs:sim.size ~src:me.rank ~dest in
  let arrival = me.clock +. Cost_model.transfer_time c ~hops ~bytes:nbytes in
  Mailbox.push sim.procs.(dest).inbox ~src:me.rank ~tag { src = me.rank; payload; marshalled; arrival };
  me.msgs_sent <- me.msgs_sent + 1;
  me.bytes_sent <- me.bytes_sent + nbytes

(* The packet a receive takes, as a position in [p]'s inbox, or -1.  MPI
   non-overtaking: per source, only the oldest matching packet is
   eligible ([Mailbox.iter_heads]).  Among those per-source heads, pick
   the earliest arrival (ties: the older send) — a deterministic
   resolution of any-source receives.  With a [deadline], a head arriving
   later than the deadline is not eligible — and neither is any younger
   packet from the same source, even one arriving in time, because
   delivering it would violate non-overtaking. *)
let pick p ~want_src ~want_tag ~any_tag ~deadline =
  let best = ref (-1) and earliest = ref Float.infinity in
  Mailbox.iter_heads p.inbox ~src:want_src ~tag:want_tag ~any_tag (fun i ->
      let arrival = (Mailbox.payload p.inbox i).arrival in
      if arrival <= deadline && arrival < !earliest then begin
        best := i;
        earliest := arrival
      end);
  !best

let deliver sim (p : proc) i =
  let pkt = Mailbox.take p.inbox i in
  p.clock <- Float.max p.clock pkt.arrival +. sim.cost.Cost_model.recv_overhead;
  p.msgs_recvd <- p.msgs_recvd + 1;
  pkt

let decode : type a. packet -> a =
 fun pkt ->
  if pkt.marshalled then Marshal.from_bytes (Obj.obj pkt.payload : bytes) 0 else Obj.obj pkt.payload

(* Every receive suspends into the scheduler, even when a matching packet
   is already in the inbox.  Delivering eagerly here would be unsound: a
   processor whose clock is still *behind* the packet's arrival may not
   have run yet, and could still produce an earlier-arriving match — the
   scheduler's global (event time, rank) order is what arbitrates that
   (see [choose]).  The classic symptom of the eager path was a receiver
   racing through a pre-filled inbox in one scheduling quantum while a
   lower-clock sender sat unstarted. *)
let recv_packet ~want_src ~want_tag ~any_tag ~deadline =
  Effect.perform (E_recv { want_src; want_tag; any_tag; deadline })

let recv_as op sim me ~src ~tag timeout =
  Engine.check_src op ~size:sim.size src;
  let deadline = Engine.deadline op (fun () -> me.clock) timeout in
  recv_packet ~want_src:src ~want_tag:tag ~any_tag:false ~deadline

(* Rank [me] as an [Engine.t], charging simulated time. *)
let engine sim me : Engine.t =
  {
    rank = me.rank;
    size = sim.size;
    cost = sim.cost;
    send = (fun ~dest ~tag v -> send_as op_send sim me ~dest ~tag v);
    recv = (fun ?timeout ~src ~tag () -> decode (recv_as op_recv sim me ~src ~tag timeout));
    recv_any =
      (fun ?timeout ?tag () ->
        let deadline = Engine.deadline op_recv_any (fun () -> me.clock) timeout in
        let pkt =
          recv_packet ~want_src:(-1) ~want_tag:(Option.value tag ~default:0)
            ~any_tag:(Option.is_none tag) ~deadline
        in
        (pkt.src, decode pkt));
    send_slice =
      (fun ~dest ~tag s ->
        (* The copy keeps the simulator's value semantics: a sim sender
           may reuse its buffer at once, unlike on the real engines. *)
        Engine.check_slice op_send_slice s;
        let c = Bigarray.Array1.create (Bigarray.Array1.kind s) Bigarray.c_layout (Bigarray.Array1.dim s) in
        Bigarray.Array1.blit s c;
        send_as op_send_slice sim me ~dest ~tag ~bytes:(Bigarray.Array1.size_in_bytes s) c);
    recv_slice =
      (fun ?timeout ~src ~tag () -> decode (recv_as op_recv_slice sim me ~src ~tag timeout));
    work = work me;
    sleep = sleep me;
    time = (fun () -> me.clock);
    note = ignore;
    workspace = Engine.fresh;
    input = Engine.no_input;
  }

(* --- scheduler --------------------------------------------------------- *)

let make_handler p : (unit, unit) Effect.Deep.handler =
  {
    Effect.Deep.retc = (fun () -> p.finished <- true);
    exnc =
      (fun e ->
        match e with
        | Fault.Crashed _ ->
            (* fail-stop: this rank ends here; the run continues *)
            p.finished <- true;
            p.crashed <- true
        | e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | E_recv { want_src; want_tag; any_tag; deadline } ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                p.blocked <- On_recv { want_src; want_tag; any_tag; deadline; k })
        | _ -> None)
  }

type action = Start of proc | Deliver of proc * int | Expire of proc * float

(* Candidates are ordered by (event time, rank): a Start happens at the
   processor's clock, a Deliver at the moment the receiver actually gets
   the packet — max(clock, arrival) — and a timeout expiry at
   max(clock, deadline).  Executing only the globally smallest event keeps
   the simulation conservative: by the time a Deliver or Expire fires,
   every processor that could still produce an earlier-arriving matching
   send has clock >= that event time (a send's arrival strictly exceeds
   the sender's clock), so the packet [pick] takes really is the
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
            | On_recv { want_src; want_tag; any_tag; deadline; _ } ->
                let i = pick p ~want_src ~want_tag ~any_tag ~deadline in
                if i >= 0 then
                  consider p (Float.max p.clock (Mailbox.payload p.inbox i).arrival) (`Deliver i)
                else if deadline < Float.infinity then consider p (Float.max p.clock deadline) `Expire
            | Not_blocked -> ()))
    sim.procs;
  match !best with
  | None -> None
  | Some (p, _, `Start) -> Some (Start p)
  | Some (p, _, `Deliver i) -> Some (Deliver (p, i))
  | Some (p, t, `Expire) -> Some (Expire (p, t))

let describe_blocked sim =
  let buf = Buffer.create 128 in
  Array.iter
    (fun p ->
      if not p.finished then
        let state =
          match p.blocked with
          | On_recv { want_src; want_tag; any_tag; _ } ->
              Engine.describe_recv ~src:want_src ~tag:want_tag ~any_tag
          | Not_blocked -> ( match p.thunk with Some _ -> "not started" | None -> "running?")
        in
        Buffer.add_string buf (Printf.sprintf "p%d@%.6f: %s; " p.rank p.clock state))
    sim.procs;
  Buffer.contents buf

let schedule sim =
  let rec loop () =
    match choose sim with
    | Some (Start p) ->
        let thunk = Option.get p.thunk in
        p.thunk <- None;
        thunk ();
        loop ()
    | Some (Deliver (p, i)) ->
        let k = match p.blocked with On_recv { k; _ } -> k | Not_blocked -> assert false in
        p.blocked <- Not_blocked;
        Effect.Deep.continue k (deliver sim p i);
        loop ()
    | Some (Expire (p, t)) ->
        let k, src, tag, any_tag =
          match p.blocked with
          | On_recv { k; want_src; want_tag; any_tag; _ } -> (k, want_src, want_tag, any_tag)
          | Not_blocked -> assert false
        in
        p.blocked <- Not_blocked;
        p.clock <- t;
        Effect.Deep.discontinue k (Engine.timeout ~rank:p.rank ~src ~tag ~any_tag ~deadline:t);
        loop ()
    | None ->
        if not (Array.for_all (fun p -> p.finished) sim.procs) then
          raise (Fault.Deadlock ("no runnable processor: " ^ describe_blocked sim))
  in
  loop ()

let fresh_proc rank =
  {
    rank;
    clock = 0.0;
    inbox = Mailbox.create no_packet;
    blocked = Not_blocked;
    thunk = None;
    finished = false;
    crashed = false;
    work_time = 0.0;
    msgs_sent = 0;
    bytes_sent = 0;
    msgs_recvd = 0;
  }

let collect_stats sim =
  {
    makespan = Array.fold_left (fun acc p -> Float.max acc p.clock) 0.0 sim.procs;
    finish_times = Array.map (fun p -> p.clock) sim.procs;
    work_times = Array.map (fun p -> p.work_time) sim.procs;
    total_msgs = Array.fold_left (fun acc p -> acc + p.msgs_sent) 0 sim.procs;
    total_bytes = Array.fold_left (fun acc p -> acc + p.bytes_sent) 0 sim.procs;
  }

(* Observability: one span around each whole simulation plus counters fed
   from the already-collected stats.  Nothing per-event — the simulator's
   inner loop stays untouched, and with obs disabled the only cost is one
   branch per run. *)
let obs_runs = Obs.Counter.make "sim.runs"
let obs_msgs = Obs.Counter.make "sim.msgs"
let obs_bytes = Obs.Counter.make "sim.bytes"
let obs_makespan = Obs.Histogram.make ~unit_:"us" "sim.makespan_us"
let obs_run_span = Obs.Span.make "sim.run_wall"

let publish_obs stats =
  if Obs.enabled () then begin
    Obs.Counter.incr obs_runs;
    Obs.Counter.add obs_msgs stats.total_msgs;
    Obs.Counter.add obs_bytes stats.total_bytes;
    Obs.Histogram.record obs_makespan (int_of_float (stats.makespan *. 1e6))
  end

(* The lowest rank's value wins, as on every engine. *)
let run_collect ?(cost = Cost_model.ap1000) ?topology ~procs program =
  let results = Array.make (max 0 procs) None in
  let stats =
    Obs.Span.timed obs_run_span (fun () ->
        Engine.check_procs (op "run_collect") procs;
        let topology = match topology with Some t -> t | None -> Topology.default procs in
        Topology.validate topology ~procs;
        let sim = { size = procs; topology; cost; procs = Array.init procs fresh_proc } in
        Array.iter
          (fun p ->
            let run eng = results.(p.rank) <- program eng in
            p.thunk <- Some (fun () -> Effect.Deep.match_with run (engine sim p) (make_handler p)))
          sim.procs;
        schedule sim;
        Array.iter
          (fun p -> if not p.crashed then Mailbox.check_undelivered p.inbox ~rank:p.rank)
          sim.procs;
        let stats = collect_stats sim in
        publish_obs stats;
        stats)
  in
  (Engine.lowest_rank (op "run_collect") results, stats)

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
    "@[<v>makespan %.6f s; %d msgs, %d bytes@,work: max %.6f s, mean %.6f s (imbalance %.2f)@]"
    stats.makespan stats.total_msgs stats.total_bytes (max_work stats) (mean_work stats)
    (imbalance stats)
