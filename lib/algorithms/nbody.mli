(** Direct-summation N-body forces — the farm skeleton's workload: each
    body's force evaluation is an independent job whose shared environment
    (the whole body set) is provided by brdcast / allgather. *)

open Machine

type body = { px : float; py : float; pz : float; mass : float }
type accel = { ax : float; ay : float; az : float }

val accelerations_seq : body array -> accel array
(** Sequential reference (softened gravity). *)

val accelerations_scl : ?exec:Scl.Exec.t -> body array -> accel array
(** Host-SCL farm with the body set as the environment. *)

val accelerations_pool : Runtime.Pool.t -> body array -> accel array
(** Work-stealing dynamic farm. *)

val accelerations : 's Backend.t -> procs:int -> body array -> accel array * 's
(** SPMD rendering on the chosen engine: allgather of bodies, local force
    loops (priced at ~20 flops per interaction on the simulator).
    Identical output on every engine. *)

val random_bodies : seed:int -> int -> body array
val accel_close : accel array -> accel array -> eps:float -> bool
val accumulate : body array -> body -> accel
