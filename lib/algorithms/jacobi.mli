(** Jacobi relaxation for the 1-D Poisson problem −u″ = f with Dirichlet
    boundaries — the [iterUntil] skeleton's workload: iterate a stencil
    until the update norm drops below a tolerance. *)

open Machine

type result = { solution : float array; iterations : int; final_diff : float }

val solve_seq :
  ?tol:float -> ?max_iter:int -> float array -> left:float -> right:float -> result
(** Sequential reference. Defaults: [tol = 1e-8], [max_iter = 100000]. *)

val solve_scl :
  ?exec:Scl.Exec.t ->
  ?parts:int ->
  ?tol:float ->
  ?max_iter:int ->
  float array ->
  left:float ->
  right:float ->
  result
(** Host-SCL rendering: chunked ParArray, halo exchange via [rotate],
    convergence via [fold max], control via [iter_until]. Iteration counts
    match {!solve_seq} exactly. *)

val solve :
  's Backend.t ->
  ?tol:float ->
  ?max_iter:int ->
  procs:int ->
  float array ->
  left:float ->
  right:float ->
  result * 's
(** The distributed SPMD program on the chosen engine: neighbour halo
    messages per sweep plus an allreduce of the residual — the
    latency-bound regime on the simulator. The solution and iteration
    count are identical on every engine. *)

(** {1 Flat tier}

    {!solve}'s program over unboxed [Scl.Flat] blocks: halos travel as
    bulk slices (zero-copy on the multicore engine, bytes-priced on the
    simulator). Both tiers run one program body, so messages and flops
    charges are the same, and solutions and iteration counts are
    bitwise-identical — the boxed tier is the differential oracle. *)

val solve_flat :
  's Backend.t ->
  ?tol:float ->
  ?max_iter:int ->
  procs:int ->
  float array ->
  left:float ->
  right:float ->
  result * 's
