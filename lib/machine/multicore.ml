(* Multicore execution engine: SPMD programs on real OCaml 5 domains.

   This is the "hand-compile to MPI and run it" half of the paper's story:
   the same [Comm]-level program that the discrete-event simulator prices
   is executed here for real, one virtual processor ("rank") per fiber,
   fibers multiplexed over a fixed set of domains (rank r runs on domain
   r mod D, so a captured continuation is always resumed on the domain
   that captured it).  Domain 0 is the calling domain itself: a run
   spawns D - 1 domains, so a one-domain run spawns none.  Besides saving
   a spawn, this keeps memory flat across many short runs: OCaml 5.1
   keeps about 1 KB of RSS for every domain ever spawned (Linux x86-64: 3000
   spawn/join pairs running one effect handler each grew VmRSS by 3.8 MB;
   the same loop on the calling domain by 0.3 MB).

   Message fabric:
   - one tagged mailbox per rank: a mutex-protected ring of parallel
     (src, tag, payload) arrays.  Per-sender push order is preserved, and
     a consumer drains the whole ring under one lock acquisition;
   - each rank drains its mailbox into a consumer-local pending ring and
     matches (src, tag) against it in arrival order, which yields exactly
     MPI's non-overtaking rule: FIFO per (source, tag);
   - payloads move zero-copy by reference ([Obj.repr]/[Obj.obj]): the
     sender must not mutate a value after sending it;
   - blocked receives park the fiber with an effect; when every rank on a
     domain is parked the domain spins with [Runtime.Backoff], then sleeps
     on its doorbell (a condvar rung by senders targeting its ranks).

   The send/recv hot paths are allocation-free in steady state: the rings
   are parallel scalar arrays (no per-message packet record, no list cell,
   no [Some] boxing — [Mpmc_queue.try_pop]'s option per poll was measured
   GC pressure), matches are returned through mutable scratch fields on
   the rank state, receive patterns are plain ints with sentinels
   (src = -1 for any; a bool for any-tag; [infinity] for no deadline)
   rather than option values, and ring growth is amortised doubling.  The
   only steady-state allocation left is the effect-handler machinery when
   a fiber actually parks — a receive satisfied from pending or by a
   drain performs no effect and allocates nothing.  [Gc] minor-word
   deltas per domain are surfaced as the [mc.minor_words] counter, and a
   test pins the zero-allocation claim on a 10k-message ping-pong.

   Deadlock is detected by quiescence, as on the simulator: when every
   live domain is asleep and no message is in flight, no future progress is
   possible.  The counters are maintained so that the test is sound:
   [in_flight] is incremented before a packet is pushed and decremented
   after it is drained, so "in_flight = 0 and all domains asleep" proves
   the mailboxes are empty and nobody will ring a doorbell.  A rank that
   returns drains its mailbox one last time, and a packet sent to it
   after that is never counted: it can never be received, so it must
   not hold quiescence off (the end-of-run check still reports it).  The last
   domain to fall asleep performs the check, as does every domain on exit
   (covering the case where the only potential sender finishes). *)

(* A FIFO ring of messages in parallel scalar arrays.  [pay] is created
   from an immediate, so it is a pointer array (never a float array) and
   generic stores are plain writes.  Capacity is a power of two; growth
   doubles and compacts to head = 0. *)
module Ring = struct
  type t = {
    mutable src : int array;
    mutable tag : int array;
    mutable pay : Obj.t array;
    mutable head : int;  (* position of the oldest entry *)
    mutable count : int;
  }

  let nil = Obj.repr 0

  let create () =
    { src = Array.make 16 0; tag = Array.make 16 0; pay = Array.make 16 nil; head = 0; count = 0 }

  let cap r = Array.length r.src

  let grow r =
    let c = cap r in
    let nsrc = Array.make (2 * c) 0
    and ntag = Array.make (2 * c) 0
    and npay = Array.make (2 * c) nil in
    let m = c - 1 in
    for j = 0 to r.count - 1 do
      let p = (r.head + j) land m in
      nsrc.(j) <- r.src.(p);
      ntag.(j) <- r.tag.(p);
      npay.(j) <- r.pay.(p)
    done;
    r.src <- nsrc;
    r.tag <- ntag;
    r.pay <- npay;
    r.head <- 0

  let push r src tag pay =
    if r.count = cap r then grow r;
    let i = (r.head + r.count) land (cap r - 1) in
    Array.unsafe_set r.src i src;
    Array.unsafe_set r.tag i tag;
    Array.unsafe_set r.pay i pay;
    r.count <- r.count + 1

  (* Drop everything, releasing payload references. *)
  let clear r =
    let m = cap r - 1 in
    for j = 0 to r.count - 1 do
      r.pay.((r.head + j) land m) <- nil
    done;
    r.head <- 0;
    r.count <- 0
end

type park =
  | Ready of (unit -> unit)
  | Running
  | Waiting of (Obj.t, unit) Effect.Deep.continuation
      (* receive pattern and deadline live in the rank-state scratch
         fields below, so parking allocates no [want] record *)
  | Finished

type rstate = {
  rk : int;
  mbox : Ring.t;  (* producers push under [mbox_mu]; consumer drains *)
  mbox_mu : Mutex.t;
  pending : Ring.t;  (* drained, unmatched; arrival order; consumer-local *)
  mutable park : park;
  mutable crashed : bool;  (* fail-stopped via Fault.Crashed *)
  mutable sent : int;  (* single-writer: only this rank's fiber *)
  mutable received : int;
  (* match scratch: [take_pending] returns the matched packet here so the
     hot path allocates no option or tuple *)
  mutable last_src : int;
  mutable last_pay : Obj.t;
  (* parked-receive pattern, valid while [park = Waiting _]: want_src = -1
     means any source; want_any covers any tag; deadline = infinity means
     none (absolute wall-clock seconds since t0 otherwise) *)
  mutable want_src : int;
  mutable want_tag : int;
  mutable want_any : bool;
  mutable deadline : float;
  mutable finished : bool;
      (* returned cleanly: its mailbox is drained for good, and later
         sends go straight to [pending]; written and read under [mbox_mu] *)
}

type doorbell = { mu : Mutex.t; cond : Condition.t; rings : int Atomic.t }

type fabric = {
  procs : int;
  ndomains : int;
  cost : Cost_model.t;
  topology : Topology.t;
  ranks : rstate array;
  bells : doorbell array;
  in_flight : int Atomic.t;
  sleepers : int Atomic.t;
  active_domains : int Atomic.t;
  sleep_count : int Atomic.t;
  failure : exn option Atomic.t;
  start : Runtime.Barrier.t;
  ends : ends option;
  t0 : int64;
}

(* The bulk ends of a [run_flat], shared by every domain of the run:
   [copy_in] before the start barrier; then, once every domain has left
   its ranks ([ranks_done]) and unless the run failed, domain 0's
   [settle] and, past [settled], everyone's [lay_out]. *)
and ends = {
  copy_in : unit -> unit;
  settle : unit -> unit;
  lay_out : unit -> unit;
  ranks_done : Runtime.Barrier.t;
  settled : Runtime.Barrier.t;
}

type stats = {
  wall : float;  (* seconds, fabric creation to last domain joined *)
  total_msgs : int;
  total_recvs : int;
  domains_used : int;
  sleeps : int;  (* spin-to-sleep transitions across all domains *)
}

type _ Effect.t += E_wait : Obj.t Effect.t

(* ------------------------------------------------------------ observability *)

let obs_runs = Obs.Counter.make "mc.runs"
let obs_sends = Obs.Counter.make "mc.sends"
let obs_recvs = Obs.Counter.make "mc.recvs"
let obs_parks = Obs.Counter.make "mc.parks"
let obs_sleeps = Obs.Counter.make "mc.sleeps"
let obs_barrier_waits = Obs.Counter.make "mc.barrier_waits"

let obs_minor_words = Obs.Counter.make "mc.minor_words"
(* Minor-heap words allocated inside the fabric's domains (per-domain
   [Gc.minor_words] delta, summed).  The allocation-free-hot-path claim is
   observable here: message volume must not move this counter. *)

let obs_wall = Obs.Histogram.make ~unit_:"us" "mc.wall_us"
let obs_run_span = Obs.Span.make "mc.run_wall"

(* ------------------------------------------------------------ message fabric *)

(* Position (from the head) of the oldest pending packet matching (src,
   tag, any_tag), or -1.  Because the pending ring is in mailbox (arrival)
   order and each sender's pushes are ordered, the first match is the
   oldest from its (source, tag). *)
let[@inline] find_pending st ~src ~tag ~any_tag =
  let r = st.pending in
  let m = Ring.cap r - 1 in
  let n = r.Ring.count in
  let found = ref (-1) in
  let j = ref 0 in
  while !found < 0 && !j < n do
    let p = (r.Ring.head + !j) land m in
    if
      (src = -1 || Array.unsafe_get r.Ring.src p = src)
      && (any_tag || Array.unsafe_get r.Ring.tag p = tag)
    then found := !j
    else incr j
  done;
  !found

(* Remove the oldest matching pending packet; the result is returned
   through [st.last_src]/[st.last_pay].  The usual match is at the head,
   so the gap-closing shift is almost always empty; either way it blits in
   place and allocates nothing. *)
let take_pending st ~src ~tag ~any_tag =
  let found = find_pending st ~src ~tag ~any_tag in
  if found < 0 then false
  else begin
    let r = st.pending in
    let m = Ring.cap r - 1 in
    let p = (r.Ring.head + found) land m in
    st.last_src <- r.Ring.src.(p);
    st.last_pay <- r.Ring.pay.(p);
    let k = ref found in
    while !k > 0 do
      let dst = (r.Ring.head + !k) land m and sp = (r.Ring.head + !k - 1) land m in
      r.Ring.src.(dst) <- r.Ring.src.(sp);
      r.Ring.tag.(dst) <- r.Ring.tag.(sp);
      r.Ring.pay.(dst) <- r.Ring.pay.(sp);
      decr k
    done;
    r.Ring.pay.(r.Ring.head) <- Ring.nil;
    r.Ring.head <- (r.Ring.head + 1) land m;
    r.Ring.count <- r.Ring.count - 1;
    true
  end

(* Move the whole mailbox into the pending ring; the caller holds
   [mbox_mu].  Returns how many messages moved. *)
let[@inline] move_mail st =
  let b = st.mbox in
  let n = b.Ring.count in
  if n > 0 then begin
    let m = Ring.cap b - 1 in
    for j = 0 to n - 1 do
      let p = (b.Ring.head + j) land m in
      Ring.push st.pending b.Ring.src.(p) b.Ring.tag.(p) b.Ring.pay.(p);
      b.Ring.pay.(p) <- Ring.nil
    done;
    b.Ring.head <- 0;
    b.Ring.count <- 0
  end;
  n

(* Move the whole mailbox into the pending ring under one lock acquisition
   (batched: senders pay one lock per message, the consumer one per
   drain). *)
let drain fab st =
  Mutex.lock st.mbox_mu;
  let n = move_mail st in
  Mutex.unlock st.mbox_mu;
  if n > 0 then ignore (Atomic.fetch_and_add fab.in_flight (-n))

(* A clean finish: the rank's last drain, and the mark that sends
   [pending] from now on, in one critical section.  A message it never
   received then no longer counts in [in_flight], where it would keep
   quiescence detection from firing for the rest of the run; the
   end-of-run check still finds it in [pending]. *)
let finish fab st =
  Mutex.lock st.mbox_mu;
  let n = move_mail st in
  st.finished <- true;
  Mutex.unlock st.mbox_mu;
  if n > 0 then ignore (Atomic.fetch_and_add fab.in_flight (-n))

let ring fab dom =
  let b = fab.bells.(dom) in
  Mutex.lock b.mu;
  Atomic.incr b.rings;
  Condition.broadcast b.cond;
  Mutex.unlock b.mu

(* First failure wins; everyone else is woken so they can observe it.
   [except] skips a doorbell whose mutex the caller already holds. *)
let declare ?except fab e =
  ignore (Atomic.compare_and_set fab.failure None (Some e));
  Array.iteri (fun d _ -> if except <> Some d then ring fab d) fab.bells

let failed fab = Atomic.get fab.failure <> None

let describe fab =
  let buf = Buffer.create 128 in
  Array.iter
    (fun st ->
      let state =
        match st.park with
        | Finished -> if st.finished && st.pending.Ring.count > 0 then Some "finished" else None
        | Ready _ -> Some "not started"
        | Running -> Some "running"
        | Waiting _ ->
            Some
              (Printf.sprintf "recv(src=%s, tag=%s%s)"
                 (if st.want_src < 0 then "any" else string_of_int st.want_src)
                 (if st.want_any then "any" else Engine.tag_name st.want_tag)
                 (if st.deadline < Float.infinity then
                    Printf.sprintf ", deadline=%.3f" st.deadline
                  else ""))
      in
      match state with
      | None -> ()
      | Some s ->
          Buffer.add_string buf
            (Printf.sprintf "p%d: %s, %d pending; " st.rk s st.pending.Ring.count))
    fab.ranks;
  "no runnable processor: " ^ Buffer.contents buf

(* ------------------------------------------------------- program-side engine *)

let now fab = Obs.Clock.ns_to_s (Obs.Clock.ns_since fab.t0)

let send op fab st ~dest ~tag v =
  Engine.check_dest op ~size:fab.procs ~self:st.rk dest;
  st.sent <- st.sent + 1;
  Obs.Counter.incr obs_sends;
  if fab.ranks.(dest).crashed then
    (* fail-stop: traffic to a dead rank is lost, not queued (keeping
       [in_flight] exact so quiescence detection stays sound) *)
    ()
  else begin
    let d = fab.ranks.(dest) in
    Mutex.lock d.mbox_mu;
    let live = not d.finished in
    if live then begin
      Atomic.incr fab.in_flight;
      Ring.push d.mbox st.rk tag (Obj.repr v)
    end
    else
      (* it will never receive: the message waits for the end-of-run
         check, outside [in_flight] *)
      Ring.push d.pending st.rk tag (Obj.repr v);
    Mutex.unlock d.mbox_mu;
    if live then ring fab (dest mod fab.ndomains)
  end

(* Tag reserved for [sleep]: no sender ever uses it, so a wait on it can
   only end by deadline expiry. *)
let sleep_tag = min_int

let recv_packet fab st ~src ~tag ~any_tag ~deadline : Obj.t =
  if take_pending st ~src ~tag ~any_tag then st.last_pay
  else begin
    drain fab st;
    if take_pending st ~src ~tag ~any_tag then st.last_pay
    else if deadline < Float.infinity && now fab >= deadline then
      raise (Engine.timeout ~rank:st.rk ~src ~tag:(if any_tag then None else Some tag) ~deadline)
    else begin
      Obs.Counter.incr obs_parks;
      st.want_src <- src;
      st.want_tag <- tag;
      st.want_any <- any_tag;
      st.deadline <- deadline;
      Effect.perform E_wait
    end
  end

(* No deadline is [infinity] (a static constant, not an option — the
   common no-timeout receive allocates nothing). *)
let[@inline] recv_from op fab st clock timeout ~src ~tag =
  Engine.check_src op ~size:fab.procs src;
  let deadline = Engine.deadline op clock timeout in
  let pay = recv_packet fab st ~src ~tag ~any_tag:false ~deadline in
  st.received <- st.received + 1;
  Obs.Counter.incr obs_recvs;
  pay

let engine fab st : Engine.t =
  let clock () = now fab in
  {
    Engine.rank = st.rk;
    size = fab.procs;
    cost = fab.cost;
    topology = fab.topology;
    send = (fun ~dest ~tag v -> send "Multicore.send" fab st ~dest ~tag v);
    recv =
      (fun ?timeout ~src ~tag () -> Obj.obj (recv_from "Multicore.recv" fab st clock timeout ~src ~tag));
    recv_any =
      (fun ?timeout ?tag () ->
        let deadline = Engine.deadline "Multicore.recv_any" clock timeout in
        let tag', any_tag = match tag with None -> (0, true) | Some t -> (t, false) in
        let pay = recv_packet fab st ~src:(-1) ~tag:tag' ~any_tag ~deadline in
        st.received <- st.received + 1;
        Obs.Counter.incr obs_recvs;
        (st.last_src, Obj.obj pay));
    send_slice =
      (fun ~dest ~tag s ->
        (* the window travels by reference through shared memory — zero
           copy, no serialisation; one message whatever the length *)
        Engine.check_slice "Multicore.send_slice" s;
        send "Multicore.send_slice" fab st ~dest ~tag s);
    recv_slice =
      (fun ?timeout ~src ~tag () ->
        Obj.obj (recv_from "Multicore.recv_slice" fab st clock timeout ~src ~tag));
    work = Engine.check_duration "Multicore.work";
    sleep =
      (fun d ->
        Engine.check_duration "Multicore.sleep" d;
        (* A plain [Unix.sleepf] would stall every rank multiplexed on this
           domain. Park through the deadline machinery instead: wait on a
           tag no message can carry, and swallow the inevitable expiry —
           other fibers keep running, and a deadline-parked rank never
           counts towards quiescence. *)
        if d > 0.0 then
          try
            ignore
              (recv_packet fab st ~src:(-1) ~tag:sleep_tag ~any_tag:false
                 ~deadline:(now fab +. d))
          with Fault.Timeout _ -> ());
    time = clock;
    note = (fun _ -> ());
    workspace = Engine.fresh;
    input = Engine.no_input;
  }

(* -------------------------------------------------------- per-domain scheduler *)

let handler fab st : (unit, unit) Effect.Deep.handler =
  {
    Effect.Deep.retc =
      (fun () ->
        finish fab st;
        st.park <- Finished);
    exnc =
      (fun e ->
        match e with
        | Fault.Crashed _ ->
            (* fail-stop: this rank ends here without failing the run; its
               pending traffic is discarded and future senders drop *)
            st.crashed <- true;
            st.park <- Finished;
            Ring.clear st.pending;
            drain fab st;
            Ring.clear st.pending
        | e ->
            st.park <- Finished;
            declare fab e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | E_wait -> Some (fun (k : (a, unit) Effect.Deep.continuation) -> st.park <- Waiting k)
        | _ -> None);
  }

let run_rank fab st =
  match st.park with
  | Ready thunk ->
      st.park <- Running;
      Effect.Deep.match_with thunk () (handler fab st)
  | Waiting k ->
      if take_pending st ~src:st.want_src ~tag:st.want_tag ~any_tag:st.want_any then begin
        st.park <- Running;
        (* receive counters are bumped by the engine-side [recv] wrapper
           when [recv_packet] returns into the resumed fiber *)
        Effect.Deep.continue k st.last_pay
      end
      else if st.deadline < Float.infinity && now fab >= st.deadline then begin
        (* runnable without a matching packet only because the deadline
           elapsed; delivery always wins when both are possible *)
        st.park <- Running;
        Effect.Deep.discontinue k
          (Engine.timeout ~rank:st.rk ~src:st.want_src
             ~tag:(if st.want_any then None else Some st.want_tag)
             ~deadline:st.deadline)
      end
      else assert false
  | Running | Finished -> assert false

(* An end's exception fails the run like a rank's. *)
let guarded fab f = try f () with e -> declare fab e

let domain_main fab d (my : rstate array) =
  (match fab.ends with Some e when not (failed fab) -> guarded fab e.copy_in | _ -> ());
  Obs.Counter.incr obs_barrier_waits;
  Runtime.Barrier.await fab.start;
  let mw0 = Gc.minor_words () in
  let bell = fab.bells.(d) in
  let backoff = Runtime.Backoff.create () in
  (* Index of a runnable rank among [my], or -1 — no option boxing in the
     scheduling sweep. *)
  let find_runnable () =
    let n = Array.length my in
    let found = ref (-1) in
    let i = ref 0 in
    while !found < 0 && !i < n do
      let st = my.(!i) in
      (match st.park with
      | Ready _ -> found := !i
      | Waiting _ ->
          drain fab st;
          if find_pending st ~src:st.want_src ~tag:st.want_tag ~any_tag:st.want_any >= 0 then
            found := !i
          else if st.deadline < Float.infinity && now fab >= st.deadline then found := !i
      | Finished ->
          (* a crashed rank keeps absorbing (and discarding) traffic so the
             in-flight count cannot wedge quiescence detection *)
          if st.crashed then begin
            drain fab st;
            Ring.clear st.pending
          end
      | Running -> assert false);
      incr i
    done;
    !found
  in
  (* Earliest receive deadline among my parked ranks ([infinity] if none):
     while one is pending this domain must poll rather than sleep
     indefinitely on its doorbell — a timeout needs no sender to ring us
     awake. *)
  let nearest_deadline () =
    let d = ref Float.infinity in
    Array.iter
      (fun st ->
        match st.park with
        | Waiting _ -> if st.deadline < !d then d := st.deadline
        | _ -> ())
      my;
    !d
  in
  let all_finished () =
    Array.for_all (fun st -> match st.park with Finished -> true | _ -> false) my
  in
  (* Spin-then-sleep.  The ring counter is read BEFORE the final sweep: a
     sender always pushes first and rings second, so if a packet arrived
     after our sweep, [rings] has moved past [seen] and the sleep loop
     falls through — no lost wakeup. *)
  let wait_for_mail () =
    let spins = ref 0 in
    Runtime.Backoff.reset backoff;
    let rec wait () =
      let seen = Atomic.get bell.rings in
      if find_runnable () >= 0 then ()
      else if failed fab || all_finished () then ()
      else if !spins < 16 then begin
        incr spins;
        Runtime.Backoff.once backoff;
        wait ()
      end
      else begin
        let dl = nearest_deadline () in
        if dl < Float.infinity then begin
          (* poll: never park in Condition.wait while a deadline is
             pending (and never count as a sleeper — a polling domain
             still makes progress, so quiescence must not fire) *)
          let remaining = dl -. now fab in
          if remaining > 0.0 then Unix.sleepf (Float.min remaining 2e-4);
          wait ()
        end
        else begin
          Atomic.incr fab.sleep_count;
          Obs.Counter.incr obs_sleeps;
          Mutex.lock bell.mu;
          while Atomic.get bell.rings = seen && not (failed fab) do
            let s = 1 + Atomic.fetch_and_add fab.sleepers 1 in
            if s >= Atomic.get fab.active_domains && Atomic.get fab.in_flight = 0 then begin
              ignore (Atomic.fetch_and_add fab.sleepers (-1));
              (* quiescent: every live domain asleep, mailboxes empty *)
              declare ~except:d fab (Fault.Deadlock (describe fab))
            end
            else begin
              Condition.wait bell.cond bell.mu;
              ignore (Atomic.fetch_and_add fab.sleepers (-1))
            end
          done;
          Mutex.unlock bell.mu;
          spins := 0;
          wait ()
        end
      end
    in
    wait ()
  in
  let rec loop () =
    if failed fab then ()
    else begin
      let i = find_runnable () in
      if i >= 0 then begin
        run_rank fab my.(i);
        loop ()
      end
      else if all_finished () then ()
      else begin
        wait_for_mail ();
        loop ()
      end
    end
  in
  (try loop () with e -> declare fab e);
  Obs.Counter.add obs_minor_words (int_of_float (Gc.minor_words () -. mw0));
  (* Exit: absorb any last-gasp traffic to crashed ranks we own, then — if
     everyone still alive is already asleep with nothing in flight — nobody
     is left to ring their doorbells. *)
  Array.iter
    (fun st ->
      if st.crashed then begin
        drain fab st;
        Ring.clear st.pending
      end)
    my;
  let remaining = Atomic.fetch_and_add fab.active_domains (-1) - 1 in
  if
    (not (failed fab))
    && remaining > 0
    && Atomic.get fab.sleepers >= remaining
    && Atomic.get fab.in_flight = 0
  then declare fab (Fault.Deadlock (describe fab));
  (* a domain waiting here no longer counts as active, so the barrier
     cannot keep quiescence from being seen *)
  Option.iter
    (fun e ->
      Runtime.Barrier.await e.ranks_done;
      if d = 0 && not (failed fab) then guarded fab e.settle;
      Runtime.Barrier.await e.settled;
      if not (failed fab) then guarded fab e.lay_out)
    fab.ends

(* ------------------------------------------------------------------- runners *)

let default_domains procs = max 1 (min procs (Domain.recommended_domain_count ()))

(* [runner] names the public runner in argument errors. *)
let run_as runner ?domains ?(cost = Cost_model.ap1000) ?topology ?ends ~procs
    (program : int -> Engine.t -> unit) : stats =
  let op = "Multicore." ^ runner in
  Engine.check_procs op procs;
  let ndomains =
    match domains with
    | None -> default_domains procs
    | Some d ->
        if d <= 0 then invalid_arg (op ^ ": domains must be positive");
        min d procs
  in
  let topology = match topology with Some t -> t | None -> Topology.default procs in
  Topology.validate topology ~procs;
  Obs.Span.timed obs_run_span (fun () ->
      let fab =
        {
          procs;
          ndomains;
          cost;
          topology;
          ranks =
            Array.init procs (fun rk ->
                {
                  rk;
                  mbox = Ring.create ();
                  mbox_mu = Mutex.create ();
                  pending = Ring.create ();
                  park = Finished;
                  crashed = false;
                  sent = 0;
                  received = 0;
                  last_src = -1;
                  last_pay = Ring.nil;
                  want_src = -1;
                  want_tag = 0;
                  want_any = true;
                  deadline = Float.infinity;
                  finished = false;
                })
          |> Fun.id;
          bells =
            Array.init ndomains (fun _ ->
                { mu = Mutex.create (); cond = Condition.create (); rings = Atomic.make 0 });
          in_flight = Atomic.make 0;
          sleepers = Atomic.make 0;
          active_domains = Atomic.make ndomains;
          sleep_count = Atomic.make 0;
          failure = Atomic.make None;
          start = Runtime.Barrier.create ndomains;
          ends =
            Option.map
              (fun (copy_in, settle, lay_out) ->
                {
                  copy_in;
                  settle;
                  lay_out;
                  ranks_done = Runtime.Barrier.create ndomains;
                  settled = Runtime.Barrier.create ndomains;
                })
              ends;
          t0 = Obs.Clock.now_ns ();
        }
      in
      Array.iter
        (fun st -> st.park <- Ready (fun () -> program st.rk (engine fab st)))
        fab.ranks;
      let my_ranks d =
        Array.of_list
          (List.filter (fun st -> st.rk mod ndomains = d) (Array.to_list fab.ranks))
      in
      (* Domain 0 is the caller, which would otherwise only block in
         [join]; D - 1 domains are spawned.  Every domain waits at the
         start barrier until all have arrived.  A failed spawn is declared
         and the barriers released, so the domains already spawned (and
         the caller) exit at once and are joined — none keeps a slot of
         the runtime's fixed domain table — and its exception re-raised. *)
      let doms = ref [] in
      (try
         for d = 1 to ndomains - 1 do
           let my = my_ranks d in
           doms := Domain.spawn (fun () -> domain_main fab d my) :: !doms
         done
       with e ->
         declare fab e;
         Runtime.Barrier.release fab.start;
         Option.iter
           (fun e ->
             Runtime.Barrier.release e.ranks_done;
             Runtime.Barrier.release e.settled)
           fab.ends);
      domain_main fab 0 (my_ranks 0);
      List.iter Domain.join !doms;
      (match Atomic.get fab.failure with Some e -> raise e | None -> ());
      Array.iter
        (fun st ->
          drain fab st;
          let r = st.pending in
          if not st.crashed then
            Engine.check_undelivered ~rank:st.rk ~count:r.Ring.count ~src:r.Ring.src.(r.Ring.head)
              ~tag:r.Ring.tag.(r.Ring.head))
        fab.ranks;
      let wall = Obs.Clock.ns_to_s (Obs.Clock.ns_since fab.t0) in
      let stats =
        {
          wall;
          total_msgs = Array.fold_left (fun acc st -> acc + st.sent) 0 fab.ranks;
          total_recvs = Array.fold_left (fun acc st -> acc + st.received) 0 fab.ranks;
          domains_used = ndomains;
          sleeps = Atomic.get fab.sleep_count;
        }
      in
      if Obs.enabled () then begin
        Obs.Counter.incr obs_runs;
        Obs.Histogram.record obs_wall (int_of_float (wall *. 1e6))
      end;
      stats)

let run_each ?domains ?cost ?topology ~procs program =
  run_as "run_each" ?domains ?cost ?topology ~procs program

let run_collect (type a) ?domains ?cost ?topology ~procs (program : Engine.t -> a option) :
    a * stats =
  (* One slot per rank, read after every domain has joined: the lowest
     rank's value wins, as on the other engines. *)
  let results : a option array = Array.make (max 0 procs) None in
  let stats =
    run_as "run_collect" ?domains ?cost ?topology ~procs (fun rank eng ->
        results.(rank) <- program eng)
  in
  (Engine.lowest_rank "Multicore.run_collect" results, stats)

(* [run_collect] for flat parts, with both bulk ends shared by the run's
   domains in blocks of [block] elements off one atomic cursor, so a
   domain that starts late (a fresh spawn) takes fewer.  The input is
   copied into rank 0's buffer, lent from the run's lease, before the
   start barrier; once every rank has finished, domain 0 allocates the
   result and every domain lays out blocks of the lowest producing
   rank's parts before the join.  A part's kind is checked in the rank
   that returns it, so a mismatch is that rank's error. *)
let block = 1 lsl 16

let share cursor n f =
  let rec go () =
    let pos = Atomic.fetch_and_add cursor block in
    if pos < n then begin
      f ~pos ~len:(min block (n - pos));
      go ()
    end
  in
  go ()

let run_flat (type k e) ?domains ?cost ?topology ~procs ~(kind : (k, e) Bigarray.kind)
    ?(input : k array option) (program : Engine.t -> (k, e) Engine.slice array option) :
    k array * stats =
  Engine.check_kind "Multicore.run_flat" kind;
  let lease = Workspace.lease () in
  let into = Option.map (fun a -> Workspace.lend_input lease kind (Array.length a)) input in
  let results = Array.make (max 0 procs) None in
  let cursor = Atomic.make 0 in
  let parts = ref [||] and out = ref [||] in
  let copy_in () =
    match (input, into) with
    | Some a, Some into -> share cursor (Array.length a) (Scl.Flat.copy_in a ~into)
    | _ -> ()
  in
  let settle () =
    Option.iter
      (fun p ->
        parts := p;
        out := Scl.Flat.create_array kind (Array.fold_left (fun n s -> n + Bigarray.Array1.dim s) 0 p);
        Atomic.set cursor 0)
      (Array.find_map Fun.id results)
  in
  let lay_out () = share cursor (Array.length !out) (Scl.Flat.lay_out kind !parts !out) in
  let stats =
    run_as "run_flat" ?domains ?cost ?topology ~ends:(copy_in, settle, lay_out) ~procs
      (fun rank eng ->
        let eng = Workspace.wrap lease eng in
        let eng = match into with Some s when rank = 0 -> Engine.with_input eng s | _ -> eng in
        results.(rank) <- Option.map (Engine.check_parts "Multicore.run_flat" kind) (program eng))
  in
  ignore (Engine.lowest_rank "Multicore.run_flat" results);
  Workspace.release lease;
  (!out, stats)
