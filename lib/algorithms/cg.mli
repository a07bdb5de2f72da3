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

    The same distributed CG with [Scl.Flat] only where data crosses
    ranks: [b]'s scattered block, the halo's 1-element bulk slices and
    the gathered solution. The rank-private vectors x, r, p and ap are
    plain [float array]s, one load per element access. Identical block
    geometry and reduction shape to the boxed variants, so iterates are
    bitwise-identical at the same [procs].

    An iteration walks the local block in two passes, not the boxed
    body's five. The stencil pass that writes [ap] first applies the
    previous iteration's [p = r + β p] (p's first and last elements
    before the halo sends, each interior element just before the stencil
    reads it) and accumulates p·ap; its first and last elements, the ones
    that read a halo value, are peeled out of the loop. The pass that
    updates [x] and [r] accumulates r·r. Each accumulator still starts at
    [0.0] and adds in index order, so every bit matches. Element accesses
    are unchecked, guarded by one length check per run. The boxed
    {!solve} keeps the textbook five-pass body as the independent
    specification. Messages and simulator charges are unchanged: the
    simulator still charges each dot product and the p update as their
    own passes, in the five-pass order, so makespans equal the five-pass
    ones. *)

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
