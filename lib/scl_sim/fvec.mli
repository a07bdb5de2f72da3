(** Block-distributed unboxed float vectors — the flat numeric tier's
    distribution.

    A vector's chunks are [Scl.Flat.float1] and move through the engines'
    bulk slice tier: no marshalling, no per-element boxing, zero-copy
    window handoff on the multicore engine, and bytes-proportional
    pricing ([8 * length] per hop) on the simulator. The block geometry
    is [Dvec]'s, so a flat solver and its boxed oracle hold the same
    elements on every rank.

    All operations are SPMD: every member of the communicator must call
    them in the same order. The local chunk is mutable storage owned by
    this member; callers may mutate it between collective calls, but must
    not mutate a chunk after sending a view of it until a synchronising
    exchange (the engines' slice discipline). *)

open Machine

type t

val local : t -> Scl.Flat.float1
(** This processor's chunk (owned, mutable in place). *)

val total : t -> int

val offset : t -> int
(** Global index of the first local element. *)

val of_local : Comm.t -> Scl.Flat.float1 -> t
(** Assemble from per-processor chunks (collective; computes offsets).
    The chunk is adopted, not copied. *)

val scatter : Comm.t -> root:int -> Scl.Flat.float1 option -> t
(** Block-distribute a root-held flat array ([Comm.scatter_slice]
    geometry: one bulk message per member). Each member owns a private
    copy of its chunk. *)

val gather : root:int -> t -> Scl.Flat.float1 option
(** Collect to the root (one bulk message per member); [Some] only
    there. *)
