(** Execution backends for SCL skeletons.

    Skeletons are written once against this record of primitive
    data-parallel loops; passing {!sequential} gives the reference
    semantics, {!on_pool} runs the same skeleton on the multicore
    work-stealing pool.

    The fused primitives ([pmap_reduce], [pmap_scan]) are the
    execution-layer counterpart of the transformation rules: compositions
    like [fold op . map f] run as a single pass with no intermediate array,
    so a pipeline rewritten by [Transform.Rewrite] pays the cost the fusion
    rules promise. Each fused primitive is semantically equal to its
    composed form (checked by the property suite and [tools/diffcheck]). *)

type t = {
  name : string;
  pmap : 'a 'b. ('a -> 'b) -> 'a array -> 'b array;
  pmapi : 'a 'b. (int -> 'a -> 'b) -> 'a array -> 'b array;
  pinit : 'a. int -> (int -> 'a) -> 'a array;
  preduce : 'a. ('a -> 'a -> 'a) -> 'a array -> 'a;
      (** Reduce a non-empty array with an associative operator, combining
          in index order (safe for non-commutative operators).
          @raise Invalid_argument on an empty array. *)
  pscan : 'a. ('a -> 'a -> 'a) -> 'a array -> 'a array;
      (** Inclusive prefix: [[| x0; op x0 x1; ... |]]. An empty array yields
          an empty array on every backend (locked cross-backend by the
          differential oracle in [tools/diffcheck]). *)
  pmap_reduce : 'a 'b. ('a -> 'b) -> ('b -> 'b -> 'b) -> 'a array -> 'b;
      (** [pmap_reduce f op a = preduce op (pmap f a)] in one pass with no
          intermediate array. @raise Invalid_argument on an empty array. *)
  pmap_scan : 'a 'b. ('a -> 'b) -> ('b -> 'b -> 'b) -> 'a array -> 'b array;
      (** [pmap_scan f op a = pscan op (pmap f a)] in one pass with no
          intermediate array; each element is mapped exactly once. *)
}

val sequential : t
(** Reference backend: plain [Array] operations. *)

val on_pool : Runtime.Pool.t -> t
(** Multicore backend over a work-stealing pool. Reduce and scan use
    two-phase chunked algorithms that preserve combination order; chunk
    counts follow the pool's size-aware grain heuristic
    ({!Runtime.Pool.grain_for}), so small arrays run as a single task. *)

val instrument : t -> t
(** Wrap each primitive in an aggregated [Obs] span
    (["exec.<backend>.<prim>"], ns) and a per-backend call counter
    (["exec.<backend>.calls"]). {!sequential} and {!on_pool} are already
    instrumented; with observability disabled (the default) the wrapper
    costs one atomic load and branch per whole-array call. *)

val chunk_bounds : int -> int -> int array
(** [chunk_bounds n k] are the [min n k + 1] boundaries of balanced
    contiguous chunks of [0..n-1] (exposed for tests). *)
