(** Block-distributed dense matrices on a q × q processor grid with row and
    column communicators — the 2-D (row_col_block) configuration skeletons
    on the simulated machine, and the home of {!summa}.

    All operations are SPMD over a communicator whose size is a perfect
    square q², with grid position (rank / q, rank mod q). *)

open Machine

type t

val init : Comm.t -> n:int -> (int -> int -> float) -> t
(** [init comm ~n f]: every processor fills its own block by evaluating [f]
    on global coordinates (no communication).
    @raise Invalid_argument if the communicator size is not a perfect
    square or the grid side does not divide [n]. *)

val scatter : Comm.t -> root:int -> float array array option -> n:int -> t
(** Distribute a root-held dense matrix block-wise. *)

val gather : root:int -> t -> float array array option
(** Reassemble at the root. *)

val grid_coords : t -> int * int
val block : t -> float array array
val grid : t -> int

val with_block : t -> float array array -> t
(** Replace the local block (no communication); shape-checked. *)

val transpose : t -> t
(** Swap block (i,j) with block (j,i) (one pairwise message), transpose
    locally. *)

type halo = {
  north : float array option;
  south : float array option;
  west : float array option;
  east : float array option;
}
(** Edge rows/columns received from the four grid neighbours; [None] at the
    machine-grid boundary (the PDE boundary). *)

val halo_exchange : t -> halo
(** Trade edges with the four neighbours — the 2-D stencil communication
    pattern. Collective over the grid. *)

val summa : t -> t -> t
(** SUMMA matrix multiply: q rounds of row/column block broadcasts + local
    multiply-accumulate. The broadcasts run in the row/column
    sub-communicators — the paper's nested processor groups. *)

val local_matmul : float array array -> float array array -> float array array
