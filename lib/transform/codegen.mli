(** Compile skeleton pipelines to OCaml source over the [Scl_sim.Dvec]
    templates — the paper's "skeletons as libraries or macros over the base
    language" implementation route. The emitted SPMD driver runs on any
    engine.

    Only parallel forms compile: [Foldr_compose] must first be rewritten
    by map distribution. One level of nesting is a handled case: inside a
    [split p] .. [combine] region the value variable holds the flat
    payload (the segment descriptor is static block bounds), and [mapn]
    of map bodies emits the flat maps — the flattening rules' insight in
    the emitted code. Shapes outside that discipline (fold / movement
    bodies, deeper nesting, stages crossing a segment boundary) still
    raise {!Not_compilable} naming the flattening rewrite that fixes
    them. *)

exception Not_compilable of string

val generate : ?name:string -> Ast.expr -> string
(** OCaml source of a function
    [val name : 's Machine.Backend.t -> procs:int -> int array -> result * 's]
    where the result is [int array] (or [int] if the pipeline ends in a
    fold). @raise Not_compilable with the reason and the rewrite that
    would fix it. *)

val generate_host : ?name:string -> Ast.expr -> string
(** The same pipeline compiled against the host library
    ([Scl.Elementary] / [Scl.Communication] over [Par_array]) — one AST,
    two targets. *)

val generate_host_flat : ?name:string -> Ast.expr -> string
(** Map/fold/scan chains of {!Flat_fns}-recognised float primitives
    compiled to the unboxed {!Scl.Flat_exec} kernels; the last map of a
    run fuses into a following fold/scan. The emitted function is
    [val name : ?fx:Scl.Flat_exec.t -> float array -> float array] (or
    [float] for a trailing fold), so one generated source runs
    sequentially or on the pool. @raise Not_compilable for stages or
    functions outside the flat vocabulary. *)

val compilable : Ast.expr -> bool
