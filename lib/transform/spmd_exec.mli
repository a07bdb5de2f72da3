(** Execute skeleton pipelines as one SPMD program over the Dvec
    templates, on any engine: the {!Machine.Backend.t} value picks the
    simulator, real domains or real processes. On the simulator this is
    the ground truth behind the static cost model. Each primitive stage
    ends with a group barrier, realising the paper's synchronous
    composition semantics (which is exactly what fusion saves).

    Nested pipelines execute {e flat}: [split p] attaches a replicated
    segment descriptor to the block-distributed payload without moving
    data, [mapn] bodies run as segmented global operations over the flat
    payload (segmented map {e is} the flat map; scan is flag-lifted; fold
    is a local partial pass plus an allgather of per-segment partials),
    and [combine] drops the descriptor. This is the executable content of
    the flattening rules — [nested_map_flatten] / [nested_fold_flatten]
    outputs and their unflattened originals both run here and agree. *)

exception Unsupported of string
(** Raised only for shapes outside the one-level flattening discipline:
    nesting deeper than one level, a group-level operation other than
    [combine] / [mapn] applied to a segmented value, or [foldr] inside a
    [mapn] body (rewrite with map-distribution first). *)

val run : 's Machine.Backend.t -> procs:int -> Ast.expr -> Value.t -> Value.t * 's
(** Scatter the input array, run the pipeline SPMD, gather the result (or
    return the replicated scalar after a fold; a pipeline ending inside a
    split region gathers and regroups). Results equal [Ast.eval e input]
    on every engine, including the error taxonomy: empty folds,
    out-of-range movements, negative iteration counts and
    non-permutation sends raise {!Value.Type_error} exactly where the
    reference interpreter does.

    On [Backend.procs] those in-rank errors cross a process boundary,
    where exception identity is lost: they arrive as
    [Machine.Procs.Child_failure (rank, "Transform.Value.Type_error(...)")]
    (and {!Unsupported} likewise). A scalar [input] is checked in the
    caller before any rank runs, so it raises {!Value.Type_error} on
    every engine. *)
