(** Parallel histogram — the irregular many-to-one workload for the
    paper's [send] communication skeleton: values are routed to the
    processors owning their buckets, which reduce the arrivals locally. *)

open Machine

val histogram_seq : buckets:int -> lo:float -> hi:float -> float array -> int array
(** Sequential reference; values outside [\[lo, hi)] clamp to the end
    buckets. @raise Invalid_argument if [buckets <= 0] or [hi <= lo]. *)

val histogram_scl :
  ?exec:Scl.Exec.t -> buckets:int -> lo:float -> hi:float -> float array -> int array
(** Host-SCL rendering via [Communication.send] (one virtual processor per
    bucket). *)

val histogram :
  's Backend.t -> procs:int -> buckets:int -> lo:float -> hi:float -> float array -> int array * 's
(** SPMD rendering on the chosen engine, with local pre-combining and one
    all-to-all of partial counts. Identical output on every engine. *)

val bucket_of : buckets:int -> lo:float -> hi:float -> float -> int
