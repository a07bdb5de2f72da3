(** Static BSP-style cost model over the skeleton AST: estimated seconds
    for one application of a pipeline to an n-element ParArray on p
    processors, in the machine's cost parameters. Used to rank rewrites;
    {!Spmd_exec} on the simulator is the ground truth. *)

val estimate_pipeline : ?flat:bool -> procs:int -> n:int -> Ast.expr -> float
(** Priced on the AP1000 cost model ({!Machine.Cost_model.ap1000}).
    @raise Invalid_argument if [procs <= 0].

    With [~flat:true] (default [false]), map/fold/scan legs whose payload
    functions the flat host tier recognises ({!Flat_fns}) have their flop
    term discounted — the optimizer then sees unboxed kernels as cheaper
    than boxed ones and ranks plans accordingly. Barriers and combine
    rounds are tier-independent and never discounted. *)

val log2_ceil : int -> int
val ceil_div : int -> int -> int
