(** The cross-engine oracle: one seeded catalogue of SPMD programs whose
    values must not depend on the engine that runs them — the paper's
    portability claim, checked program by program.

    Each family maps a case seed and a backend to labelled checks; a check
    returns [None] when it passes and a description of the divergence
    otherwise.  The workload shape (input lengths, value bounds, matrix
    sizes, chaos probabilities, crash points), not only the data, derives
    from the seed.  [tools/diffcheck] runs the families over its case
    seeds; the engine test suites run them at seed 42 (the delay chaos
    also at seeds 1 and 7).

    A label reads ["<program>: <engine> <shape> seed=<n>"]; {!program}
    reads the program back, so a caller can run a subset. *)

type check = string * (unit -> string option)

val program : check -> string
(** The program a check's label names: the text before its first [':']. *)

val sorts : string list
val matrix : string list

val solvers : string list
(** The {!equivalence} family's sort, matrix and solver programs, as
    {!program} reads them; the engine suites group their cases by these. *)

val failures : check list -> string list
(** Runs every check; one ["<label>: <divergence>"] line per failing or
    raising check. *)

val collectives :
  Machine.Comm.t ->
  (string option list * int * string * string * int array * int array * int) list option
(** The collective battery: reduce at every root under a non-commutative
    operator ([^]), allreduce ([+] and [^]), scan, allgather, alltoall and
    an allreduce inside a [split]; root 0 gathers each rank's results. *)

val farm_expected : int -> int array
(** [farm_expected n]: the results of {!Algorithms.Farm_sim.skewed_spec}'s
    [n] jobs. *)

val equivalence : seed:int -> 's Machine.Backend.t -> check list
(** Each program's value on the backend equals its value on the simulator,
    compared as [Marshal] images: boxed and flat-int hyperquicksort and
    the collective battery at p = 1, 2, 4; Cannon and SUMMA on 1x1 and 2x2
    grids; bitonic, odd-even, sample sort, FFT, Gauss, histogram, k-means,
    line of sight, n-body and the static farm; the boxed jacobi, heat2d
    and cg solvers (iterations capped); and one generated pipeline through
    {!Transform.Spmd_exec} (skipped if it raises on the simulator).  The
    sorts must also leave the caller's keys as they were. *)

val faults : seed:int -> 's Machine.Backend.t -> check list
(** On the backend: seeded delay/reorder chaos and a straggler stall leave
    the collective battery's values unchanged at p = 2, 4, 8; the
    zero-fault wrap is an identity (on the simulator also in makespan,
    messages and bytes); and the dynamic farm returns every result when a
    seeded worker crashes mid-run (on procs, the dead rank is the one
    reported crashed). *)

val tiers : seed:int -> 's Machine.Backend.t -> check list
(** The flat tier on the backend equals the boxed tier on the simulator,
    bit for bit: jacobi and cg at p = 1..4, heat2d at p = 1, 3, 4 (the
    boxed tier on a square grid: 1x1 for p = 3), and the
    flat-int hyperquicksort at p = 1, 2, 4, which must also leave the
    caller's keys as they were.  On the simulator the two tiers of jacobi,
    cg and the sort also send the same number of messages. *)
