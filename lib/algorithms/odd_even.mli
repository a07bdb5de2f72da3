(** Odd-even transposition sort: P compare-split phases between alternating
    neighbour pairs — strictly nearest-neighbour communication, the ring
    network's native sort. *)

open Machine

val sort : 's Backend.t -> ?topology:Topology.t -> procs:int -> int array -> int array * 's
(** The SPMD program on the chosen engine; identical output on every
    engine. Any processor count; [topology] (default [Ring], where every
    exchange is one hop) only reprices the hops on the simulator.
    @raise Invalid_argument on a [max_int] key (reserved as padding). *)
