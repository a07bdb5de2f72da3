(** Sample sort (PSRS): the strongest topology-independent parallel sort of
    the paper's era, used as the baseline behind the paper's "compares well
    with the best speedup available" remark. *)

open Machine

val sort_scl : ?exec:Scl.Exec.t -> parts:int -> int array -> int array
(** Host-SCL rendering: partition + local sort, regular sampling, splitter
    selection, configuration-level all-to-all bucket exchange, local merge.
    @raise Invalid_argument if [parts <= 0]. *)

val sort : 's Backend.t -> procs:int -> int array -> int array * 's
(** SPMD rendering on the chosen engine: one all-to-all bucket exchange
    (priced on the simulator). Any processor count (hypercube not
    required); identical output on every engine. *)

(** {2 Internals (exposed for tests)} *)

val regular_samples : int -> int array -> int array
val choose_splitters : int -> int array -> int array
val bucketize : int array -> int array -> int array array
