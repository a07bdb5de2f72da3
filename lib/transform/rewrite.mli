(** The rewrite engine: drive rules to a fixpoint over the chain view,
    recursing into nested programs, logging every step. *)

type step = { rule : string; before : string; after : string }

val normalize : ?rules:Rules.rule list -> Ast.expr -> Ast.expr * step list
(** Leftmost-position, priority-ordered rule application to fixpoint
    (default rules: {!Rules.default}), stopping after 1000 steps. Semantics are
    preserved whenever every rule in the set is sound. *)

val step_once : Rules.rule list -> Ast.expr -> (string * Ast.expr) option
(** One rewrite step, or [None] at a normal form. *)

val step_all : Rules.rule list -> Ast.expr -> (string * Ast.expr) list
(** Every single-step rewrite: each rule at each chain position, including
    positions inside [mapn] / [iter] bodies — the neighbourhood relation
    explored by the optimizer's search. [step_all rules e = []] iff
    [step_once rules e = None]. *)

val pp_step : Format.formatter -> step -> unit
val pp_derivation : Format.formatter -> step list -> unit
