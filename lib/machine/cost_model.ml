(* Machine cost parameters: an alpha-beta communication model plus scalar
   compute rates.  All times in seconds.

   A point-to-point transfer of [b] bytes over [h] hops costs
     alpha + h * per_hop + b * beta
   on the wire; in addition the sender is charged [send_overhead] and the
   receiver [recv_overhead] of CPU time.  The static estimate prices a
   barrier over P processors at [barrier_base * ceil(log2 P)]. *)

type t = {
  name : string;
  flop_time : float;  (* seconds per scalar arithmetic operation *)
  mem_time : float;  (* seconds per word for memory-bound inner loops *)
  alpha : float;  (* per-message software latency *)
  per_hop : float;  (* additional wire latency per hop *)
  beta : float;  (* seconds per byte of payload *)
  send_overhead : float;  (* CPU time charged to the sender per message *)
  recv_overhead : float;  (* CPU time charged to the receiver per message *)
  barrier_base : float;  (* per-round barrier cost *)
}

(* Fujitsu AP1000 (Ishihata et al. 1991): 25 MHz SPARC cells (~6 Mflop/s
   effective scalar rate), T-net with 25 MB/s links, ~20 us software message
   latency, fast hardware synchronisation network. *)
let ap1000 =
  {
    name = "ap1000";
    flop_time = 1.0 /. 6.0e6;
    mem_time = 120.0e-9;
    alpha = 20.0e-6;
    per_hop = 0.5e-6;
    beta = 1.0 /. 25.0e6;
    send_overhead = 5.0e-6;
    recv_overhead = 5.0e-6;
    barrier_base = 5.0e-6;
  }

(* Intel Paragon (1993): i860XP cells (~10 Mflop/s effective scalar),
   ~40 us OSF message latency, 175 MB/s links on a 2-D mesh. *)
let paragon =
  {
    name = "paragon";
    flop_time = 1.0 /. 10.0e6;
    mem_time = 80.0e-9;
    alpha = 40.0e-6;
    per_hop = 0.1e-6;
    beta = 1.0 /. 175.0e6;
    send_overhead = 10.0e-6;
    recv_overhead = 10.0e-6;
    barrier_base = 10.0e-6;
  }

(* Thinking Machines CM-5 (1992): 33 MHz SPARC nodes (~8 Mflop/s scalar),
   fat-tree with ~5 us network latency, 10 MB/s per-node bandwidth, and a
   fast dedicated control network for barriers/reductions. *)
let cm5 =
  {
    name = "cm5";
    flop_time = 1.0 /. 8.0e6;
    mem_time = 100.0e-9;
    alpha = 5.0e-6;
    per_hop = 0.3e-6;
    beta = 1.0 /. 10.0e6;
    send_overhead = 3.0e-6;
    recv_overhead = 3.0e-6;
    barrier_base = 1.0e-6;  (* hardware control network *)
  }

(* Cray T3D (1993): 150 MHz Alpha nodes (~30 Mflop/s effective scalar),
   3-D torus with ~2 us latency and 300 MB/s links. *)
let t3d =
  {
    name = "t3d";
    flop_time = 1.0 /. 30.0e6;
    mem_time = 40.0e-9;
    alpha = 2.0e-6;
    per_hop = 0.1e-6;
    beta = 1.0 /. 300.0e6;
    send_overhead = 1.0e-6;
    recv_overhead = 1.0e-6;
    barrier_base = 2.0e-6;
  }

(* A contemporary commodity cluster node: ~2 Gflop/s scalar, ~1 us MPI
   latency, ~10 GB/s effective link bandwidth. *)
let modern =
  {
    name = "modern";
    flop_time = 0.5e-9;
    mem_time = 1.0e-9;
    alpha = 1.0e-6;
    per_hop = 50.0e-9;
    beta = 1.0 /. 10.0e9;
    send_overhead = 0.3e-6;
    recv_overhead = 0.3e-6;
    barrier_base = 1.0e-6;
  }

(* Communication is free: isolates the compute component in tests and
   ablations. *)
let zero_comm =
  {
    name = "zero-comm";
    flop_time = 1.0 /. 6.0e6;
    mem_time = 0.0;
    alpha = 0.0;
    per_hop = 0.0;
    beta = 0.0;
    send_overhead = 0.0;
    recv_overhead = 0.0;
    barrier_base = 0.0;
  }

(* Unit costs: every message costs 1s latency + 1s/byte, every flop 1s.
   Makes simulator arithmetic exactly checkable in unit tests. *)
let unit_costs =
  {
    name = "unit";
    flop_time = 1.0;
    mem_time = 1.0;
    alpha = 1.0;
    per_hop = 1.0;
    beta = 1.0;
    send_overhead = 0.0;
    recv_overhead = 0.0;
    barrier_base = 0.0;
  }

let transfer_time t ~hops ~bytes =
  t.alpha +. (float_of_int hops *. t.per_hop) +. (float_of_int bytes *. t.beta)

let barrier_time t ~procs =
  if procs <= 1 then 0.0
  else begin
    let rec rounds acc n = if n <= 1 then acc else rounds (acc + 1) ((n + 1) / 2) in
    float_of_int (rounds 0 procs) *. t.barrier_base
  end

let flops t n = float_of_int n *. t.flop_time

let pp ppf t =
  Fmt.pf ppf
    "@[<v>%s:@ flop=%.3gns mem=%.3gns@ alpha=%.3gus per_hop=%.3gus beta=%.3gns/B@ ovh=%.3g/%.3gus \
     barrier=%.3gus@]"
    t.name (t.flop_time *. 1e9) (t.mem_time *. 1e9) (t.alpha *. 1e6) (t.per_hop *. 1e6)
    (t.beta *. 1e9) (t.send_overhead *. 1e6) (t.recv_overhead *. 1e6) (t.barrier_base *. 1e6)
