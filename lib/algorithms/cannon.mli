(** Cannon's matrix multiplication — the showcase for the paper's
    [rotate_row] / [rotate_col] communication skeletons: an initial skew
    followed by q rounds of multiply-accumulate and unit block rotations on
    a q × q grid. *)

open Machine

type block = float array array

val multiply_scl :
  ?exec:Scl.Exec.t -> grid:int -> float array array -> float array array -> float array array
(** Host-SCL rendering over a [Par_array2] of blocks.
    @raise Invalid_argument unless both matrices are n×n with [grid]
    dividing n. *)

val multiply :
  's Backend.t -> grid:int -> float array array -> float array array -> float array array * 's
(** The SPMD program on a grid×grid torus (single-hop neighbour shifts on
    the simulator); identical product on every engine.
    @raise Invalid_argument as {!multiply_scl}. *)

val random_matrix : seed:int -> int -> float array array

(** {2 Block plumbing (exposed for SUMMA and tests)} *)

val to_blocks : int -> float array array -> block Scl.Par_array2.t
val of_blocks : block Scl.Par_array2.t -> float array array
val block_add : block -> block -> block
val zero_block : int -> block

val check_operands : string -> grid:int -> float array array -> float array array -> int
(** [check_operands name ~grid a b] is the common dimension [n] of two n×n
    matrices. @raise Invalid_argument (prefixed by [name]) unless both are
    square with the same [n] and [grid > 0] divides [n]. *)
