(** Block bitonic sort on a hypercube — the perfectly load-balanced but
    full-data-volume baseline: every compare-split moves whole blocks, so
    it pays maximum communication where hyperquicksort pays only what must
    cross the pivot. *)

open Machine

val sort : 's Backend.t -> procs:int -> int array -> int array * 's
(** The SPMD program on the chosen engine; identical output on every
    engine. [procs] must be a power of two; [max_int] keys are reserved
    as padding sentinels. @raise Invalid_argument otherwise. *)

val compare_split : keep_low:bool -> int array -> int array -> int array
(** Merge my sorted block with the partner's and keep the lower or upper
    half (exposed for tests). *)
