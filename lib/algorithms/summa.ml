(* SUMMA matrix multiplication on the simulated machine: the broadcast-
   based alternative to Cannon.  Cannon's shifts are single-hop neighbour
   messages but demand the initial skew; SUMMA replaces them with q
   row/column broadcasts per round — the canonical comparison of
   "communication-skeleton choice" the ablation benchmarks report. *)

open Machine

(* One processor's SPMD program: scatter both operands over the q x q grid,
   run the Dmat SUMMA template, gather C at the root.  Engine-parametric —
   the same body runs on the simulator and on real domains. *)
let summa_program ~n (comm : Comm.t) (a : float array array) (b : float array array) :
    float array array option =
  let root = Comm.rank comm = 0 in
  let da = Scl_sim.Dmat.scatter comm ~root:0 (if root then Some a else None) ~n in
  let db = Scl_sim.Dmat.scatter comm ~root:0 (if root then Some b else None) ~n in
  let dc = Scl_sim.Dmat.summa da db in
  Scl_sim.Dmat.gather ~root:0 dc

let multiply backend ~grid (a : float array array) (b : float array array) =
  let n = Cannon.check_operands "Summa.multiply" ~grid a b in
  Scl_sim.Spmd.run backend ~topology:(Topology.Torus2d (grid, grid)) ~procs:(grid * grid)
    (fun comm -> summa_program ~n comm a b)
