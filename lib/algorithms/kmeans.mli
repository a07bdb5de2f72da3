(** Lloyd's k-means — the farm + reduction workload: assignment is a farm
    with the centroids as shared environment; the update is an associative
    fold of per-cluster accumulators. *)

open Machine

type point = { x : float; y : float }

type result = {
  centroids : point array;
  assignment : int array;  (** cluster index per input point *)
  iterations : int;
  converged : bool;  (** movement dropped below [tol] before [max_iter] *)
}

val run_seq :
  ?tol:float -> ?max_iter:int -> k:int -> point array -> init:point array -> result
(** Sequential reference. [init] supplies the [k] starting centroids.
    @raise Invalid_argument on bad [k] or [init] size. *)

val run_scl :
  ?exec:Scl.Exec.t ->
  ?parts:int ->
  ?tol:float ->
  ?max_iter:int ->
  k:int ->
  point array ->
  init:point array ->
  result
(** Host-SCL rendering: farm over point chunks + fold of accumulators. *)

val run :
  's Backend.t ->
  ?tol:float ->
  ?max_iter:int ->
  procs:int ->
  k:int ->
  point array ->
  init:point array ->
  result * 's
(** SPMD rendering on the chosen engine: local accumulation + allreduce
    per iteration. Identical result on every engine. *)

val nearest : point array -> point -> int
val dist2 : point -> point -> float

val blobs : seed:int -> k:int -> per_cluster:int -> point array * point array
(** Well-separated test blobs: (points, true centres). *)
