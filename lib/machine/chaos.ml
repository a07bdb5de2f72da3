(* Deterministic, seeded fault injection as an [Engine.t] wrapper.

   The point of the skeleton story is that coordination semantics survive
   the substrate; Chaos lets us *test* that by perturbing the substrate
   while keeping every run replayable from a seed:

   - delay/reorder : a send is held back for a random number of this
     rank's subsequent communication operations, then released.  Holding
     happens on the SENDER side, before the engine sees the message, so
     every engine is perturbed identically and the engines' own FIFO
     machinery is untouched.  Release preserves arrival order per
     (dest, tag) — exactly the per-(src,tag) FIFO relaxation every engine
     documents: messages to different destinations or on different tags may
     reorder freely, same-channel messages may not.
   - stalls        : a per-rank straggler tax paid before every
     communication operation via [Engine.sleep] — simulated seconds on
     the simulator (visible in the makespan), a fiber-aware deadline
     park on the real engines (only the straggler's fiber stalls, never
     the whole OS thread it shares with other ranks).
   - crashes       : rank r fail-stops ([Fault.Crashed]) just before its
     n-th communication operation; held sends die with it.

   Determinism: each rank draws from its own [Xoshiro.nth_child seed rank]
   stream, and every decision is a pure function of (spec, rank, this
   rank's own operation count) — never of cross-rank timing.  On the
   simulator the whole perturbed run is therefore reproducible bit-for-bit;
   on the multicore engine the *decisions* are reproducible even though
   real-time interleaving is not.

   Deadlock-freedom: every held send is flushed before this rank blocks in
   a receive and when the program ends, so a zero-crash schedule can only
   reorder traffic, never lose it. *)

type spec = {
  seed : int;
  delay_prob : float;  (* probability a send is held back *)
  max_hold : int;  (* max comm ops a held send waits; >= 1 when delaying *)
  stalls : (int * float) list;  (* rank -> straggler seconds per comm op *)
  crashes : (int * int) list;  (* rank -> fail-stop before its n-th comm op (1-based) *)
  crashes_at : (int * float) list;
      (* rank -> fail-stop at the first comm op at-or-after this engine-clock
         time (seconds).  Op-count crashes pin a protocol step; time crashes
         model membership churn in long-lived services, where "worker dies
         two seconds in" is the scenario of interest regardless of how many
         messages it got through first. *)
}

let none =
  { seed = 0; delay_prob = 0.0; max_hold = 0; stalls = []; crashes = []; crashes_at = [] }
let delays ?(seed = 1) ?(prob = 0.25) ?(max_hold = 3) () = { none with seed; delay_prob = prob; max_hold }

type held = {
  h_dest : int;
  h_tag : int;
  h_fire : unit -> unit;  (* the underlying engine send, value captured *)
  mutable h_left : int;  (* comm ops until release *)
}

type state = {
  spec : spec;
  rng : Runtime.Xoshiro.t;
  base : Engine.t;
  my_stall : float;
  crash_at : int option;
  crash_at_time : float option;
  mutable ops : int;  (* this rank's communication-operation count *)
  mutable outbox : held list;  (* held sends, oldest first *)
}

let obs_faults = Obs.Counter.make "chaos.faults_injected"

(* Flush held sends that have served their delay, preserving per-(dest,tag)
   order: a ready entry stays held while an older entry on the same channel
   is still held (releasing it would overtake). *)
let flush_ready st =
  let still_held = Hashtbl.create 4 in
  st.outbox <-
    List.filter
      (fun h ->
        let key = (h.h_dest, h.h_tag) in
        if h.h_left <= 0 && not (Hashtbl.mem still_held key) then begin
          h.h_fire ();
          false
        end
        else begin
          Hashtbl.replace still_held key ();
          true
        end)
      st.outbox

let flush_all st =
  List.iter (fun h -> h.h_fire ()) st.outbox;
  st.outbox <- []

(* Release every held send on [dest]/[tag] (oldest first) so an immediate
   send on that channel cannot overtake them. *)
let flush_channel st dest tag =
  st.outbox <-
    List.filter
      (fun h ->
        if h.h_dest = dest && h.h_tag = tag then begin
          h.h_fire ();
          false
        end
        else true)
      st.outbox

(* One communication operation is about to run on this rank: crash if
   scheduled, charge the straggler tax, age the outbox. *)
let tick st =
  st.ops <- st.ops + 1;
  let fail_stop () =
    Obs.Counter.incr obs_faults;
    st.outbox <- [];  (* fail-stop: held traffic dies with the rank *)
    raise (Fault.Crashed st.base.Engine.rank)
  in
  (match st.crash_at with Some n when st.ops >= n -> fail_stop () | _ -> ());
  (match st.crash_at_time with
  | Some t when st.base.Engine.time () >= t -> fail_stop ()
  | _ -> ());
  if st.my_stall > 0.0 then begin
    Obs.Counter.incr obs_faults;
    (* [Engine.sleep], not [Unix.sleepf]: on the multicore engine several
       rank fibers multiplex one OS thread, and a raw sleepf would stall
       every one of them with the straggler (the hazard Multicore's
       deadline park exists to avoid).  [sleep] parks only this fiber; on
       the simulator it advances the clock, so the stall still shows up
       in the makespan. *)
    st.base.Engine.sleep st.my_stall
  end;
  List.iter (fun h -> h.h_left <- h.h_left - 1) st.outbox;
  flush_ready st

(* One send, boxed or bulk: both are one message, so they are held and
   released alike — the fault model is per-message, and the coalescing
   invariant (one bulk send = one message) holds under perturbation too.
   [fire] is the underlying engine send, value captured. *)
let send_or_hold st ~dest ~tag fire =
  tick st;
  if st.spec.delay_prob > 0.0 && Runtime.Xoshiro.float st.rng 1.0 < st.spec.delay_prob then begin
    Obs.Counter.incr obs_faults;
    let hold = 1 + Runtime.Xoshiro.int st.rng st.spec.max_hold in
    st.outbox <- st.outbox @ [ { h_dest = dest; h_tag = tag; h_fire = fire; h_left = hold } ]
  end
  else begin
    flush_channel st dest tag;
    fire ()
  end

let wrap spec (eng : Engine.t) : Engine.t * state =
  (* each check is written so that NaN fails it *)
  if not (spec.delay_prob >= 0.0 && spec.delay_prob <= 1.0) then
    invalid_arg "Chaos.run: delay_prob must be in [0,1]";
  if spec.delay_prob > 0.0 && spec.max_hold < 1 then
    invalid_arg "Chaos.run: max_hold must be >= 1 when delay_prob > 0";
  List.iter
    (fun (_, s) -> if not (s >= 0.0) then invalid_arg "Chaos.run: stall must be >= 0")
    spec.stalls;
  List.iter
    (fun (_, n) -> if n < 1 then invalid_arg "Chaos.run: crash op index must be >= 1")
    spec.crashes;
  List.iter
    (fun (_, t) -> if not (t >= 0.0) then invalid_arg "Chaos.run: crash time must be >= 0")
    spec.crashes_at;
  let rank = eng.Engine.rank in
  let st =
    {
      spec;
      rng = Runtime.Xoshiro.nth_child (Runtime.Xoshiro.of_seed spec.seed) rank;
      base = eng;
      my_stall = (match List.assoc_opt rank spec.stalls with Some s -> s | None -> 0.0);
      crash_at = List.assoc_opt rank spec.crashes;
      crash_at_time = List.assoc_opt rank spec.crashes_at;
      ops = 0;
      outbox = [];
    }
  in
  let wrapped =
    {
      eng with
      Engine.send =
        (fun ~dest ~tag v -> send_or_hold st ~dest ~tag (fun () -> eng.Engine.send ~dest ~tag v));
      send_slice =
        (fun ~dest ~tag s ->
          send_or_hold st ~dest ~tag (fun () -> eng.Engine.send_slice ~dest ~tag s));
      recv_slice =
        (fun ?timeout ~src ~tag () ->
          tick st;
          flush_all st;
          eng.Engine.recv_slice ?timeout ~src ~tag ());
      recv =
        (fun ?timeout ~src ~tag () ->
          tick st;
          (* blocking with undelivered sends in hand could deadlock the
             peers we owe traffic to — release everything first *)
          flush_all st;
          eng.Engine.recv ?timeout ~src ~tag ());
      recv_any =
        (fun ?timeout ?tag () ->
          tick st;
          flush_all st;
          eng.Engine.recv_any ?timeout ?tag ());
    }
  in
  (wrapped, st)

let run spec (program : Engine.t -> 'a) (eng : Engine.t) : 'a =
  let wrapped, st = wrap spec eng in
  let r = program wrapped in
  (* release trailing held sends; not reached when the program crashes,
     whose held sends are already gone *)
  flush_all st;
  r
