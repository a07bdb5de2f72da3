(** Typed random generation of well-formed skeleton pipelines and inputs.

    The generator tracks the static shape of the value flowing through the
    chain (flat array of known length, nested groups, or scalar) so every
    generated pipeline evaluates without a type error under the reference
    interpreter.

    Inputs are not just flat [Int] arrays: elements may be floats or
    [Int]-component pairs (each with its own type-correct stage pool), and
    arrays may be empty. Float inputs are multiples of [0.5] and float
    operators are restricted to the exactly-associative-on-dyadics subset
    in {!Transform.Fn}, so float pipelines are bit-identical across
    backends despite parallel fold/scan reassociation.

    {2 Precondition set}

    Generated cases respect the documented preconditions of the backends;
    anything outside them is intentionally-partial behaviour, not a
    divergence:

    - the input is a flat array with [n >= 0]; at [n = 0] only stages that
      are total on the empty array are generated ([Fold], [Foldr_compose]
      and [Split] are gated on [n >= 1] / [n >= 2] — index functions are
      never applied at [n = 0], so size-aware shifts cannot divide by
      zero);
    - [Fold]/[Scan] operators are associative (backends chunk and combine
      in index order — the paper calls non-associative results undefined);
    - [Send] index functions are in-range permutations;
    - [Split p] has [1 <= p <= n], so every group is non-empty and nested
      folds are total;
    - [Iter_for] counts are non-negative. *)

type case = { chain : Transform.Ast.expr list; input : Transform.Value.t }

val expr : case -> Transform.Ast.expr
val print : case -> string
val spmd_executable : case -> bool
(** Static mirror of [Spmd_exec]'s one-level flattening discipline: [true]
    guarantees [Spmd_exec] will not raise [Spmd_exec.Unsupported] on
    this case (it may still raise [Value.Type_error], exactly where the
    reference interpreter does). Flat cases are always executable;
    one-level [split .. mapn .. combine] regions with flat bodies are
    too. Conservative on shapes the segmented executor rejects. *)

type elem = EInt | EFloat | EPair

val elem_name : elem -> string

val gen : unit -> case Gen.t
(** Flat pipelines and one-level nested regions, over a random element
    type (ints weighted highest). *)

val shrink : case Shrink.t
(** Drops stages, shrinks rotation/iteration/split constants, and shrinks
    the input array (length and element values, including floats on the
    half-integer grid and pair components). Candidates may be ill-typed;
    the properties skip those. *)

(** {1 Building blocks (shared with the rule oracle)} *)

val gen_fn : Transform.Fn.t Gen.t
val gen_fn2_assoc : Transform.Fn.t2 Gen.t
val gen_fn2_any : Transform.Fn.t2 Gen.t

val gen_fn_of : elem -> Transform.Fn.t Gen.t
(** Type-correct unary pool for an element type. *)

val gen_fn2_assoc_of : elem -> Transform.Fn.t2 Gen.t
(** Type-correct associative binary pool for an element type. *)

val gen_perm_ifn : Transform.Fn.ifn Gen.t
(** Permutation index functions valid at every array length. *)

val gen_fetch_ifn : n:int -> Transform.Fn.ifn Gen.t
(** Adds non-injective sources (constants) when [n >= 1]; falls back to
    permutations at [n = 0] (where they are never applied). *)

val gen_lp_stage : Transform.Ast.expr Gen.t
(** One flat, length-preserving stage, well-typed at every length [>= 1]. *)

val gen_lp_stage_of : elem -> Transform.Ast.expr Gen.t
(** As {!gen_lp_stage}, for a given element type. *)

val gen_ctx : max_stages:int -> Transform.Ast.expr list Gen.t
(** A context chain of [0..max_stages] length-preserving stages. *)

val gen_input : n:int -> Transform.Value.t Gen.t
(** Flat [Int] array of length [n] (the historical generator; see
    {!gen_input_elem}). *)

val gen_input_elem : elem:elem -> n:int -> Transform.Value.t Gen.t
