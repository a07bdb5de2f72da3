(** Static BSP-style cost model over the skeleton AST: estimated seconds
    for one application of a pipeline to an n-element ParArray on p
    processors, in the machine's cost parameters. Used to rank rewrites;
    {!Spmd_exec} on the simulator is the ground truth. *)

val estimate_pipeline : procs:int -> n:int -> Ast.expr -> float
(** Priced on the AP1000 cost model ({!Machine.Cost_model.ap1000}),
    the same for the boxed and the flat host tier.
    @raise Invalid_argument if [procs <= 0]. *)

val log2_ceil : int -> int
val ceil_div : int -> int -> int
