(** The two harnesses of the correctness tooling:

    - the {b rule oracle}: for a given {!Transform.Rules.rule}, generate
      pipelines in which the rule fires (a known-firing instance of the
      rule's pattern embedded in a random context), apply it, and check
      [eval (rewrite e) = eval e] on a random input — plus a cost-model
      consistency check against the simulator;
    - the {b differential oracle}: run one generated pipeline through the
      reference interpreter, the host {!Transform.Host_exec} backends
      (sequential and, when given, pool — each also with
      [~optimize:true]), and {!Transform.Spmd_exec} on the simulator at several processor
      counts, and compare results;
    - the {b fused-primitive oracle}: check that the fused Exec primitives
      ([map_fold] / [map_scan] / [map_compose]) agree with their composed
      two-pass forms on every backend and element type. *)

val apply_rule_somewhere :
  Transform.Rules.rule -> Transform.Ast.expr list -> Transform.Ast.expr list option
(** Rewrite at the first position (left to right) where the rule fires. *)

(** {1 Rule oracle} *)

val gen_rule_case : Transform.Rules.rule -> Pipe_gen.case Gen.t
(** Pipelines containing an injected firing instance of the rule (known
    rules by name; unknown rules fall back to fully random pipelines and
    rely on the property's skip). *)

val gen_firing_case : Transform.Rules.rule -> Pipe_gen.case Gen.t
(** As {!gen_rule_case}, but a rule unknown to the pattern generator gets
    a {e synthesized} firing context: random pipelines are
    rejection-sampled (bounded) until the rule fires somewhere. This is
    the generator behind the exhaustive rule-soundness sweep — every rule
    in [Rules.all] keeps a nonzero fire count even if nobody taught the
    generator its pattern. *)

val rule_prop : Transform.Rules.rule -> Pipe_gen.case -> Runner.result_
(** Skips when the rule does not fire anywhere or the case is ill-typed
    (shrink candidates); fails on any semantic difference. *)

val check_rule : ?config:Runner.config -> Transform.Rules.rule -> Pipe_gen.case Runner.outcome
(** Runs {!rule_prop} over {!gen_firing_case} with shrinking — the
    per-rule soundness check behind the exhaustive sweep in the test
    suite. *)

(** {1 Cost-model consistency} *)

val cost_prop : procs:int -> tolerance:float -> Pipe_gen.case -> Runner.result_
(** Normalises the pipeline with the default rules (flattening
    included); if the static cost model claims an improvement, the
    simulated makespan must not regress beyond [tolerance] (a
    multiplicative factor). Nested cases participate whenever they are
    {!Pipe_gen.spmd_executable}. *)

val check_cost :
  ?config:Runner.config -> procs:int -> tolerance:float -> unit -> Pipe_gen.case Runner.outcome

(** {1 Differential oracle} *)

type diff_stats = {
  mutable compared : int;  (** cases compared across backends *)
  mutable sim_ran : int;
      (** sim-executable cases (flat, or one-level nested within the
          segmented discipline) also run on the simulator *)
  mutable sim_skipped : int;  (** cases the simulator cannot run *)
}

val new_stats : unit -> diff_stats

val diff_prop :
  ?pool_exec:Scl.Exec.t ->
  ?stats:diff_stats ->
  sim_procs:int list ->
  Pipe_gen.case ->
  Runner.result_

val check_differential :
  ?config:Runner.config ->
  ?pool_exec:Scl.Exec.t ->
  ?stats:diff_stats ->
  sim_procs:int list ->
  unit ->
  Pipe_gen.case Runner.outcome

(** {1 Fused-primitive oracle} *)

type fused_case = {
  felem : Pipe_gen.elem;
  ff : Transform.Fn.t;  (** map payload *)
  fop : Transform.Fn.t2;  (** associative combine *)
  fg : Transform.Fn.t;  (** second map payload, for [map_compose] *)
  finput : Transform.Value.t;
}

val print_fused : fused_case -> string
val gen_fused_case : fused_case Gen.t
val shrink_fused : fused_case Shrink.t

val fused_prop : ?pool_exec:Scl.Exec.t -> fused_case -> Runner.result_
(** [Elementary.map_fold op f = fold op . map f] (and likewise for
    [map_scan] / [map_compose]) on the sequential backend and, when given,
    the pool backend — over ints, dyadic floats and pairs, lengths 0..40. *)

val check_fused :
  ?config:Runner.config -> ?pool_exec:Scl.Exec.t -> unit -> fused_case Runner.outcome
