(** SUMMA matrix multiplication as an SPMD program: q rounds of
    row/column block broadcasts in grid sub-communicators — the
    processor-group (nested ParArray) counterpart to Cannon's neighbour
    shifts. *)

open Machine

val multiply :
  's Backend.t -> grid:int -> float array array -> float array array -> float array array * 's
(** C = A·B on a grid×grid torus; identical product on every engine.
    @raise Invalid_argument unless both matrices are n×n with [grid]
    dividing n. *)
