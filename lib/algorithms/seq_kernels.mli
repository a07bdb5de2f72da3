(** The sequential base-language procedures of the paper's examples
    (SEQ_QUICKSORT, MIDVALUE, SPLIT, MERGE, PARTIALPIVOT, UPDATE) and the
    sequential baselines they feed. SCL treats these as black boxes; they
    are ordinary OCaml functions here. *)

(** {2 Benchmark-pinned names}

    The steady benchmark's [service] workload calls these by name: each
    job sorts its keys with {!quicksort} and checks the output with
    {!is_sorted}. *)

val quicksort : int array -> int array
(** SEQ_QUICKSORT: the keys sorted into a fresh array; the input is never
    written. The paper's is a quicksort, but SCL only calls it, so this is
    the LSD radix sort of {!Scl.Flat.Int.sort} on [int array], sharing its
    plan and pass loop ({!Scl.Radix}). Keys are ranked by [x - min] read
    as unsigned, so any int keys sort. The range's bits are cut into
    digits of equal width, at most 8 bits (four passes for 30-bit keys,
    eight for the whole int range), and a pass whose digit is the same for
    every key is skipped. An input with no descent costs one read and a
    copy, one with no ascent one read and a reversed copy, and one of at
    most 32 keys an insertion sort. Extra memory: an n-slot scratch array
    beside the result (when two passes move keys) and two 256-slot count
    tables. *)

val is_sorted : int array -> bool
(** No key is greater than the next; stops at the first descent. *)

(** {2 The other kernels} *)

val midvalue : int array -> int option
(** Middle element of an already-sorted array; [None] when empty (the
    hyperquicksort pivot, MIDVALUE). *)

val split_at : int -> int array -> int array * int array
(** [split_at pivot sorted] = (elements ≤ pivot, elements > pivot), by
    binary search (SPLIT). *)

val merge : int array -> int array -> int array
(** Merge two sorted arrays (MERGE). *)

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
