(** Flat-tier host execution backends: unboxed map/fold/scan (plus the
    fused forms) over {!Flat.float1} payloads.

    The operator is a first-order description rather than a bare closure:
    a kernel matches it once and runs a monomorphic
    [Bigarray.Array1.unsafe_get]/[unsafe_set] loop, so the known
    primitives execute with no per-element closure call and no
    per-element allocation. [Fun1]/[Fun2] are the escape hatches for
    arbitrary functions and pay the boxed calling convention per element.

    {!on_pool} chunks by {!Flat.sub_view} (O(1), copy-free) with the
    pool's bytes-aware grain ([Runtime.Pool.grain_for_bytes]); its scan is
    a Blelloch-style two-phase layout — per-chunk reduce into an unboxed
    partials array, a sequential exclusive scan of the partials, then one
    downsweep writing each output slot exactly once. Two data passes, no
    option boxing; the boxed three-phase scan pays a third full pass and
    an ['a option] per chunk.

    All loops apply operators in ascending index order and combine chunk
    results in chunk order, so on exactly-associative operators (the
    dyadic-exact [Transform.Fn] float library) results are bit-identical
    to the boxed [Scl] skeletons on both backends — the contract the
    property tests and diffcheck's host-flat legs pin. *)

type fun1 =
  | Id
  | Neg
  | Scale of float  (** [fun x -> x *. c] *)
  | Offset of float  (** [fun x -> x +. c] *)
  | Fun1 of (float -> float)  (** escape hatch: boxed per-element call *)

type fun2 =
  | Add
  | Mul
  | Max
  | Min
  | Fun2 of (float -> float -> float)  (** escape hatch: boxed per-element call *)

val apply1 : fun1 -> float -> float
val apply2 : fun2 -> float -> float -> float

type t = {
  name : string;
  fmap : fun1 -> Flat.float1 -> Flat.float1;
  ffold : fun2 -> Flat.float1 -> float;
      (** combine in index order. @raise Invalid_argument on empty input *)
  fscan : fun2 -> Flat.float1 -> Flat.float1;  (** inclusive prefix *)
  fmap_fold : fun1 -> fun2 -> Flat.float1 -> float;
      (** [ffold op (fmap f a)] in one pass, no intermediate array *)
  fmap_scan : fun1 -> fun2 -> Flat.float1 -> Flat.float1;
      (** [fscan op (fmap f a)] in one pass, no intermediate array *)
}

val sequential : t
(** The defining semantics: one left-to-right pass per kernel. *)

val on_pool : Runtime.Pool.t -> t
(** Work-stealing pool backend: sub-view chunking, bytes-aware grain,
    two-phase reduce and Blelloch two-phase scan. *)
