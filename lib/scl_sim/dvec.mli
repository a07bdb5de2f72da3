(** Block-distributed vectors on the simulated machine: problem-independent
    implementation templates of the paper's elementary and communication
    skeletons. All operations are SPMD — every member of the communicator
    must call them in the same order. Local compute is charged to the
    simulated clock via operation counts; data movement is priced by the
    machine's cost model. *)

open Machine

type 'a t

val comm : 'a t -> Comm.t
val local : 'a t -> 'a array
(** This processor's chunk (do not mutate). *)

val local_length : 'a t -> int
val total : 'a t -> int
val offset : 'a t -> int
(** Global index of the first local element. *)

val block_bounds : total:int -> parts:int -> int array
val owner_of : total:int -> parts:int -> int -> int

val of_local : Comm.t -> 'a array -> 'a t
(** Assemble from per-processor chunks (collective; computes offsets). *)

val scatter : Comm.t -> root:int -> 'a array option -> 'a t
(** Block-distribute a root-held array. *)

val gather : root:int -> 'a t -> 'a array option
(** Collect to the root; [Some] only there. *)

val allgather : 'a t -> 'a array

(** {1 Elementary skeletons} *)

val map : ?flops_per_elem:int -> ('a -> 'b) -> 'a t -> 'b t
val imap : ?flops_per_elem:int -> (int -> 'a -> 'b) -> 'a t -> 'b t
(** [imap] passes the {e global} element index. *)

val fold : ?flops_per_elem:int -> ('a -> 'a -> 'a) -> 'a t -> 'a
(** Local fold + binomial allreduce; every member receives the result.
    @raise Invalid_argument on an empty vector. *)

val scan : ?flops_per_elem:int -> ('a -> 'a -> 'a) -> 'a t -> 'a t
(** Inclusive global prefix (local scan, group scan of totals, local
    adjust). *)

(** {1 Communication skeletons} *)

val rotate : int -> 'a t -> 'a t
(** Global rotation by [k] (result element [g] = input element
    [(g+k) mod total]); sends only the segments neighbours need. *)

val applybrdcast : flops:int -> ('a -> 'b) -> int -> 'a t -> 'b
(** Apply [f] on the owner of global element [i], broadcast the result. *)

val fetch : (int -> int) -> 'a t -> 'a t
(** Irregular fetch: result element [g] is input element [f g]. Two
    all-to-all phases (index requests out, values back). *)

val send : (int -> int list) -> 'a t -> 'a array t
(** Irregular send: element [g] is delivered to every index in [f g];
    destinations accumulate arrivals in ascending source order. *)

val zip : 'a t -> 'b t -> ('a * 'b) t
(** Pointwise pairing of identically-distributed vectors (the distributed
    align; no communication). @raise Invalid_argument on mismatch. *)
