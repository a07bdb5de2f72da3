(** Conjugate gradients for the 1-D Laplacian system (SPD tridiagonal) —
    the reduction-heavy iterative solver: two allreduced dot products
    (fold) plus a neighbour stencil (matvec) per iteration. *)

open Machine

type result = { solution : float array; iterations : int; residual_norm : float }

val solve_seq : ?tol:float -> ?max_iter:int -> float array -> result
(** Sequential reference; stops when ‖r‖₂ < tol. *)

val solve_scl : ?exec:Scl.Exec.t -> ?tol:float -> ?max_iter:int -> float array -> result
(** Host-SCL rendering (dot = zip_with + fold, matvec = imap); iteration
    counts match {!solve_seq}. *)

val solve :
  's Backend.t -> ?tol:float -> ?max_iter:int -> procs:int -> float array -> result * 's
(** The distributed SPMD program on the chosen engine; identical solution
    and iteration count on every engine. *)

val laplacian_matvec : float array -> float array
val residual_inf : float array -> float array -> float
(** max |A x − b| for the Laplacian system. *)

(** {1 Flat tier}

    The same distributed CG over unboxed [Scl.Flat] chunks with bulk-slice
    halos. Identical block geometry and reduction shape to the boxed
    variants, so iterates are bitwise-identical at the same [procs].

    An iteration walks the local block in three passes, not the boxed
    body's five: p·ap is accumulated in the stencil pass that writes [ap]
    (whose first and last elements, the ones that read a halo value, are
    peeled out of the loop), and r·r in the pass that updates [x] and [r].
    Each accumulator still starts at [0.0] and adds in index order, so
    every bit matches. The boxed {!solve} keeps the textbook five-pass
    body as the independent specification. Messages and simulator charges
    are unchanged: the simulator still charges each dot product as its own
    pass, so makespans equal the five-pass ones. *)

val solve_flat :
  's Backend.t -> ?tol:float -> ?max_iter:int -> procs:int -> float array -> result * 's

(** {2 Benchmark-pinned names}

    The steady benchmark calls these by name; each is {!solve_flat} on
    one backend. *)

val solve_sim_flat : ?tol:float -> ?max_iter:int -> procs:int -> float array -> result * Sim.stats
(** [solve_flat (Backend.sim ())]. *)

val solve_multicore_flat :
  ?domains:int ->
  ?tol:float ->
  ?max_iter:int ->
  procs:int ->
  float array ->
  result * Multicore.stats
(** [solve_flat (Backend.multicore ?domains ())]. *)
