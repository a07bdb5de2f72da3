(** The paper's Section 3 linear solver: Gauss–Jordan elimination with
    partial pivoting over column-distributed augmented matrices, written as
    [iterFor n (map UPDATE ∘ applybrdcast PARTIALPIVOT)]. *)

open Machine

val solve_scl : ?exec:Scl.Exec.t -> ?parts:int -> float array array -> float array -> float array
(** Host-SCL solve of A x = b with the columns block-distributed over
    [parts] virtual processors.
    @raise Failure on singular systems,
    @raise Invalid_argument on shape mismatch. *)

val solve : 's Backend.t -> procs:int -> float array array -> float array -> float array * 's
(** The same algorithm as an SPMD program on the chosen engine: the pivot
    column's owner broadcasts {!Seq_kernels.pivot_info} each step,
    everyone updates its columns. Identical output on every engine. *)

val random_system : seed:int -> int -> float array array * float array
(** Well-conditioned (diagonally dominant) random test system. *)

val augment : float array array -> float array -> float array array
(** Column-wise augmented representation [(A | b)]: [n+1] columns of
    length [n]. *)
