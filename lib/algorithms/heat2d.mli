(** 2-D Poisson (−Δu = f, zero Dirichlet boundary) by Jacobi relaxation —
    the 2-D stencil workload: [row_col_block] partitioning with
    [rotate_row]/[rotate_col] halo movement on the host, and Dmat halo
    exchange on the simulated torus. *)

open Machine

type result = { solution : float array array; iterations : int; final_diff : float }

val solve_seq : ?tol:float -> ?max_iter:int -> float array array -> result
(** Sequential reference on the n×n interior grid. *)

val solve_scl :
  ?exec:Scl.Exec.t -> ?grid:int -> ?tol:float -> ?max_iter:int -> float array array -> result
(** Host-SCL rendering on a [grid × grid] block decomposition; iteration
    counts match {!solve_seq} exactly.
    @raise Invalid_argument unless [grid] divides the dimension. *)

val solve :
  's Backend.t -> ?tol:float -> ?max_iter:int -> procs:int -> float array array -> result * 's
(** The distributed SPMD program on the chosen engine ([procs] must be a
    perfect square whose side divides the dimension): halo exchange +
    stencil sweep + allreduce per iteration. Identical solution and
    iteration count on every engine.
    @raise Invalid_argument on a non-square grid. *)

val manufactured_f : int -> float array array
(** f = 2π² sin(πx) sin(πy), whose exact solution is
    {!manufactured_u}. *)

val manufactured_u : int -> int -> int -> float
(** u(i,j) = sin(πx_i) sin(πy_j). *)

(** {1 Flat tier}

    Row-band decomposition of the grid flattened into unboxed [Scl.Flat]
    storage: each sweep's halo is ONE whole-row bulk message per
    neighbour (versus four strided edge messages per block on the Dmat
    path). Solutions and iteration counts are bitwise-identical to the
    boxed variants. Works for any [procs] (not just perfect squares). *)

val solve_flat :
  's Backend.t -> ?tol:float -> ?max_iter:int -> procs:int -> float array array -> result * 's
