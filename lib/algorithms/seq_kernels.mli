(** The sequential base-language procedures of the paper's examples
    (SEQ_QUICKSORT, MIDVALUE, SPLIT, MERGE, PARTIALPIVOT, UPDATE) and the
    sequential baselines they feed. SCL treats these as black boxes; they
    are ordinary OCaml functions here. *)

val quicksort : int array -> int array
(** Quicksort (median-of-three, Hoare partition, insertion-sort cutoff);
    returns a fresh sorted array, input untouched. Presorted, reversed and
    all-equal inputs split evenly. *)

val midvalue : int array -> int option
(** Middle element of an already-sorted array; [None] when empty (the
    hyperquicksort pivot, MIDVALUE). *)

val split_at : int -> int array -> int array * int array
(** [split_at pivot sorted] = (elements ≤ pivot, elements > pivot), by
    binary search (SPLIT). *)

val merge : int array -> int array -> int array
(** Merge two sorted arrays (MERGE). *)

val is_sorted : int array -> bool

val partial_pivot : row:int -> float array -> int
(** Index (≥ [row]) of the largest absolute value in a pivot column
    (PARTIALPIVOT). @raise Invalid_argument if [row] is out of range. *)

type pivot_info = { swap_row : int; pivot : float; multipliers : float array }
(** What the pivot column's owner broadcasts at each elimination step. *)

val make_pivot_info : row:int -> float array -> pivot_info
(** @raise Failure if the matrix is singular to working precision. *)

val update : row:int -> pivot_info -> float array -> float array
(** One Gauss–Jordan elimination step applied to a column (UPDATE): swap
    the pivot row in, eliminate, normalise. Pure (fresh array). *)

val gauss_seq : float array array -> float array -> float array
(** Dense sequential Gauss–Jordan solve of A x = b with partial pivoting.
    @raise Failure on singular systems,
    @raise Invalid_argument on shape mismatch. *)

val residual : float array array -> float array -> float array -> float
(** [residual a x b] = max_i |(Ax - b)_i|. *)

val matmul : float array array -> float array array -> float array array
(** Dense matrix product (sequential baseline for Cannon / SUMMA). *)
