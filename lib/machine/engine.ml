(* Execution-engine vtable for SPMD programs.

   The paper's point (and Haskell#'s) is that the coordination layer should
   be retargetable: the same skeleton program must run on different
   execution media without touching the computation code.  [Comm] therefore
   writes its collectives once against this record of primitives, and each
   engine — the discrete-event simulator ([of_sim]) and the real-domain
   multicore fabric ([Multicore.engine]) — supplies its own implementation.

   A record of explicitly-polymorphic closures is used instead of a functor
   so that programs keep the plain value type [Comm.t -> 'a option] and a
   single compiled program body can be handed to either engine at runtime.

   Semantics every engine must provide:
   - [send] never waits for a matching receive; [recv] blocks until a
     message with the exact (src, tag) is available, FIFO per (source,
     tag) — MPI's non-overtaking rule.  On the procs engine a frame that
     does not fit in the socket buffer returns once the kernel holds it,
     servicing every inbound stream meanwhile, so a send waits at most
     until its destination next enters any engine call, finishes, or
     dies.
   - [recv_any] takes the oldest available message (any source) matching
     the optional tag; engines may resolve ties differently (the simulator
     is deterministic, real hardware is not).
   - [recv]/[recv_any] with [?timeout] raise [Fault.Timeout] once the
     deadline (engine-clock seconds from the call) elapses with no matching
     message — a local, recoverable condition, unlike the engines' global
     [Deadlock].
   - [work d] charges [d] seconds of compute: simulated time on the
     simulator, a no-op on engines where computation costs real time.
   - [sleep d] idles for [d] engine-clock seconds: the rank's clock
     advances but no compute is charged (simulated work_times and the
     imbalance diagnostics are untouched); on real engines it is an actual
     sleep.  Long-lived programs (pacing an arrival process, a departed
     worker waiting to rejoin) need idling that both engines price in
     their own clock — [work] cannot express it because it is free on
     real engines and counts as compute on the simulator.
   - [time ()] is the engine's own clock: simulated seconds on the
     simulator, wall-clock seconds since the run started on real engines.
     [real_time] says which: fault injectors (Chaos) use it to decide
     whether a straggler stall must burn wall time or simulated time. *)

(* The typed bulk tier: an unboxed float slice (C-layout Bigarray window).
   [send_slice]/[recv_slice] carry exactly one message per call whatever
   the slice length — the engine-level contract message coalescing builds
   on.  The multicore engine passes the window zero-copy through shared
   memory (no serialisation); the simulator prices it as a single message
   of [8 * length] bytes (payload bytes, no marshalling framing) while
   keeping its value-semantics deep copy.  Senders on a real engine must
   not mutate the window until a synchronising exchange with the receiver
   (the usual MPI buffer-reuse discipline; a collective suffices). *)
type slice = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  rank : int;
  size : int;
  cost : Cost_model.t;
  topology : Topology.t;
  real_time : bool;
  send : 'a. dest:int -> tag:int -> 'a -> unit;
  recv : 'a. ?timeout:float -> src:int -> tag:int -> unit -> 'a;
  recv_any : 'a. ?timeout:float -> ?tag:int -> unit -> int * 'a;
  send_slice : dest:int -> tag:int -> slice -> unit;
  recv_slice : ?timeout:float -> src:int -> tag:int -> unit -> slice;
  work : float -> unit;
  sleep : float -> unit;
  time : unit -> float;
  note : string -> unit;
}

let work_flops t n = t.work (Cost_model.flops t.cost n)

let of_sim (ctx : Sim.ctx) : t =
  {
    rank = Sim.rank ctx;
    size = Sim.size ctx;
    cost = Sim.cost ctx;
    topology = Sim.topology ctx;
    real_time = false;
    send = (fun ~dest ~tag v -> Sim.send ctx ~dest ~tag v);
    recv = (fun ?timeout ~src ~tag () -> Sim.recv ctx ~src ~tag ?timeout ());
    recv_any = (fun ?timeout ?tag () -> Sim.recv_any ctx ?tag ?timeout ());
    send_slice =
      (fun ~dest ~tag s ->
        (* One message priced at the payload's true unboxed size.  The copy
           keeps the simulator's value semantics (a sim sender may reuse its
           buffer immediately, unlike on real engines) — [~bytes] already
           skips the marshalling cost model would otherwise charge. *)
        let n = Bigarray.Array1.dim s in
        let c = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
        Bigarray.Array1.blit s c;
        Sim.send ctx ~dest ~tag ~bytes:(8 * n) c);
    recv_slice = (fun ?timeout ~src ~tag () -> Sim.recv ctx ~src ~tag ?timeout ());
    work = (fun d -> Sim.work ctx d);
    sleep = (fun d -> Sim.sleep ctx d);
    time = (fun () -> Sim.time ctx);
    note = (fun msg -> Sim.note ctx msg);
  }
