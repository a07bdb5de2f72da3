(** Cost-guided optimisation over the transformation rules.

    [Greedy] (the default) normalises with the rule set and keeps the
    result only if the static cost model agrees it is no worse — the
    behaviour of every release since the optimizer landed.

    [Beam] searches: [Rewrite.step_all] enumerates every rule at every
    position (including inside mapn/iter bodies), candidates are ranked
    by the deterministic total order (estimated cost, AST size, printed
    form), at most [width] survive each of [depth] generations, and the
    search restarts from each improvement until a fixpoint. Greedy
    normalisation seeds every round's portfolio, so the searched plan is
    never worse than the greedy plan, and the fixpoint construction makes
    [optimize] idempotent: optimising the output changes nothing. *)

type strategy = Greedy | Beam of { width : int; depth : int }

val default_beam : strategy
(** [Beam { width = 8; depth = 24 }] — bounds the explored frontier to at
    most [width * depth] expansions per run. *)

type report = {
  input : Ast.expr;
  output : Ast.expr;
  steps : Rewrite.step list;  (** the winning rewrite path *)
  cost_before : float;
  cost_after : float;
  strategy : strategy;
  explored : int;
      (** distinct programs visited: [1 + length steps] for greedy, the
          cumulative beam frontier for search *)
}

val optimize :
  ?procs:int ->
  ?n:int ->
  ?rules:Rules.rule list ->
  ?strategy:strategy ->
  Ast.expr ->
  report
(** When [rules] is omitted it defaults per strategy: {!Rules.default}
    for [Greedy] (unchanged behaviour), {!Rules.all} for [Beam] (the
    search covers the whole algebra, flattening and unrolling included).
    Plans are priced on the AP1000 cost model
    ({!Cost.estimate_pipeline}). [cost_after <= cost_before] always
    holds: the input program is itself a candidate. *)

val speedup : report -> float
val strategy_name : strategy -> string
val pp_report : Format.formatter -> report -> unit
