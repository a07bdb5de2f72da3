(* Shape-directed pipeline generation. The static shape of the value is
   tracked through the chain (array length, group sizes, scalar) so every
   stage is well-typed where it lands; the precondition set is documented
   in the interface.

   The generator is widened beyond flat Int arrays: inputs may hold floats
   (multiples of 0.5, so parallel reassociation of fadd is exact) or
   Int-component pairs, and arrays may be empty (n = 0) — stage pools are
   chosen per element type, and the few stages that are partial at n = 0
   (fold, foldr, split) are gated on the length. *)

open Transform
open Gen

type case = { chain : Ast.expr list; input : Value.t }

let expr c = Ast.of_chain c.chain
let print c = Printf.sprintf "%s $ %s" (Ast.to_string (expr c)) (Fmt.str "%a" Value.pp c.input)

(* Static mirror of Spmd_exec's one-level flattening discipline: [true]
   guarantees Spmd_exec will not raise [Spmd_exec.Unsupported] on this
   case (it may still raise [Value.Type_error], exactly where the
   reference interpreter does). Conservative: a [false] only means the
   SPMD legs are skipped. *)
let spmd_executable c =
  (* stages executable inside a mapn body on the segmented payload — any
     flat stage, Fold included (a fold mid-body is a Type_error on every
     backend, not an Unsupported) *)
  let rec seg_body_ok = function
    | Ast.Split _ | Ast.Combine | Ast.Map_nested _ | Ast.Foldr_compose _ -> false
    | Ast.Compose (f, g) -> seg_body_ok f && seg_body_ok g
    | Ast.Iter_for (_, b) -> seg_body_ok b
    | _ -> true
  in
  (* abstract state: `F = flat vector / scalar, `G = segmented *)
  let rec walk st chain =
    match chain with
    | [] -> Some st
    | stage :: rest -> (
        let next =
          match (st, stage) with
          | `F, Ast.Split _ -> Some `G
          | st, Ast.Compose _ -> walk st (Ast.to_chain stage)
          | `F, Ast.Iter_for (k, b) ->
              let rec iter st i =
                if i <= 0 then Some st
                else
                  match walk st (Ast.to_chain b) with
                  | Some st' -> iter st' (i - 1)
                  | None -> None
              in
              iter `F k
          | `F, _ -> Some `F
          | `G, Ast.Combine -> Some `F
          | `G, Ast.Map_nested b ->
              if List.for_all seg_body_ok (Ast.to_chain b) then
                (* a body ending in fold leaves one scalar per segment: a
                   flat p-vector *)
                match List.rev (Ast.to_chain b) with
                | Ast.Fold _ :: _ -> Some `F
                | _ -> Some `G
              else None
          | `G, _ -> None (* group-level operation on a segmented vector *)
        in
        match next with Some st' -> walk st' rest | None -> None)
  in
  (match c.input with Value.Arr _ -> true | _ -> false) && walk `F c.chain <> None

(* --- element types --------------------------------------------------------- *)

type elem = EInt | EFloat | EPair

let elem_name = function EInt -> "int" | EFloat -> "float" | EPair -> "pair"

(* Ints dominate so the historical distribution is roughly preserved. *)
let gen_elem = frequency [ (2, return EInt); (1, return EFloat); (1, return EPair) ]

(* --- function pools -------------------------------------------------------- *)

let gen_fn =
  frequency
    [
      (3, oneof_val Fn.[ incr; double; square; negate; halve ]);
      (1, return Fn.id);
    ]

let gen_fn2_assoc = oneof_val Fn.[ add; mul; imax; imin ]
let gen_fn2_any = oneof_val Fn.[ add; mul; imax; imin; sub ]

(* Float maps keep dyadic rationals dyadic and float folds are exactly
   associative on them (see Fn), so float pipelines stay bit-identical
   across backends despite parallel reassociation. *)
let gen_fn_float =
  frequency
    [ (3, oneof_val Fn.[ fincr; fneg; fhalve; fdouble ]); (1, return Fn.id) ]

let gen_fn2_assoc_float = oneof_val Fn.[ fadd; fmax; fmin ]

let gen_fn_pair =
  frequency [ (3, oneof_val Fn.[ pswap; pincr_both ]); (1, return Fn.id) ]

let gen_fn2_assoc_pair = oneof_val Fn.[ padd_pw; pmax_pw ]

let gen_fn_of = function
  | EInt -> gen_fn
  | EFloat -> gen_fn_float
  | EPair -> gen_fn_pair

let gen_fn2_assoc_of = function
  | EInt -> gen_fn2_assoc
  | EFloat -> gen_fn2_assoc_float
  | EPair -> gen_fn2_assoc_pair

let gen_basic_perm =
  frequency
    [
      (1, return Fn.i_id);
      (3, map Fn.i_shift (int_range (-7) 7));
      (2, return Fn.i_reverse);
    ]

let gen_perm_ifn =
  frequency
    [
      (3, gen_basic_perm);
      (1, map2 Fn.i_compose gen_basic_perm gen_basic_perm);
    ]

let i_const j = Fn.{ iname = Printf.sprintf "const(%d)" j; iapply = (fun ~n:_ _ -> j) }

let gen_fetch_ifn ~n =
  if n < 1 then gen_perm_ifn
  else frequency [ (3, gen_perm_ifn); (1, map i_const (int_range 0 (n - 1))) ]

let gen_elem_value = function
  | EInt -> map (fun i -> Value.Int i) (int_range (-20) 20)
  | EFloat ->
      (* multiples of 0.5: dyadic, exact under reassociated fadd *)
      map (fun i -> Value.Float (float_of_int i *. 0.5)) (int_range (-40) 40)
  | EPair ->
      map2
        (fun a b -> Value.Pair (Value.Int a, Value.Int b))
        (int_range (-20) 20) (int_range (-20) 20)

let gen_input_elem ~elem ~n =
  let+ a = array_size (return n) (gen_elem_value elem) in
  Value.Arr a

let gen_input ~n = gen_input_elem ~elem:EInt ~n

(* --- stages ---------------------------------------------------------------- *)

(* Flat, length-preserving, well-typed at any length >= 1 (and vacuously at
   0, where no index function is ever applied): usable inside Iter_for /
   Map_nested bodies and as oracle context. *)
let gen_lp_stage_of elem =
  let base =
    [
      (4, map (fun f -> Ast.Map f) (gen_fn_of elem));
      (2, map (fun f -> Ast.Scan f) (gen_fn2_assoc_of elem));
      (2, map (fun k -> Ast.Rotate k) (int_range (-7) 7));
      (2, map (fun f -> Ast.Send f) gen_perm_ifn);
      (2, map (fun f -> Ast.Fetch f) gen_perm_ifn);
    ]
  in
  let imap =
    match elem with EInt -> [ (1, return (Ast.Imap Fn.add_index)) ] | EFloat | EPair -> []
  in
  frequency (base @ imap)

let gen_lp_stage = gen_lp_stage_of EInt
let gen_ctx ~max_stages = list_size (int_range 0 max_stages) gen_lp_stage

type shape = Flat of int | Groups of int array | Scalar

let block_sizes ~n ~p =
  let q = n / p and r = n mod p in
  Array.init p (fun k -> if k < r then q + 1 else q)

let gen_flat_stage ~elem n : (Ast.expr * shape) Gen.t =
  let lp g = map (fun e -> (e, Flat n)) g in
  let base =
    [
      (4, lp (map (fun f -> Ast.Map f) (gen_fn_of elem)));
      (2, lp (map (fun f -> Ast.Scan f) (gen_fn2_assoc_of elem)));
      (2, lp (map (fun k -> Ast.Rotate k) (int_range (-2 * n) (2 * n))));
      (2, lp (map (fun f -> Ast.Send f) gen_perm_ifn));
      (2, lp (map (fun f -> Ast.Fetch f) (gen_fetch_ifn ~n)));
      ( 1,
        let* k = int_range 0 3 in
        let+ body = list_size (int_range 1 2) (gen_lp_stage_of elem) in
        (Ast.Iter_for (k, Ast.of_chain body), Flat n) );
    ]
  in
  let int_only =
    match elem with
    | EInt ->
        [
          (1, lp (return (Ast.Imap Fn.add_index)));
          ( 1,
            if n >= 1 then
              let* f = gen_fn2_any in
              let+ g = gen_fn in
              (Ast.Foldr_compose (f, g), Scalar)
            else lp (map (fun f -> Ast.Map f) gen_fn) );
        ]
    | EFloat | EPair -> []
  in
  let fold =
    (* partial at n = 0 on every backend: gate on the length *)
    if n >= 1 then [ (1, map (fun f -> (Ast.Fold f, Scalar)) (gen_fn2_assoc_of elem)) ]
    else []
  in
  let nested =
    if n >= 1 then
      [
        ( 2,
          let+ p = int_range 1 (min n 4) in
          (Ast.Split p, Groups (block_sizes ~n ~p)) );
      ]
    else []
  in
  frequency (base @ int_only @ fold @ nested)

let gen_group_stage ~elem sizes : (Ast.expr * shape) Gen.t =
  let p = Array.length sizes in
  let total = Array.fold_left ( + ) 0 sizes in
  frequency
    [
      (3, return (Ast.Combine, Flat total));
      ( 2,
        let* body = list_size (int_range 1 3) (gen_lp_stage_of elem) in
        frequency
          [
            (3, return (Ast.Map_nested (Ast.of_chain body), Groups sizes));
            ( 1,
              (* an iterated body exercises unrolling inside the segmented
                 executor *)
              let+ k = int_range 0 3 in
              (Ast.Map_nested (Ast.Iter_for (k, Ast.of_chain body)), Groups sizes) );
          ] );
      (1, map (fun f -> (Ast.Map_nested (Ast.Fold f), Flat p)) (gen_fn2_assoc_of elem));
    ]

let rec gen_stages ~elem shape budget : Ast.expr list Gen.t =
  if budget <= 0 then return []
  else
    match shape with
    | Scalar -> return []
    | Flat n ->
        let* st, sh = gen_flat_stage ~elem n in
        let+ rest = gen_stages ~elem sh (budget - 1) in
        st :: rest
    | Groups sizes ->
        let* st, sh = gen_group_stage ~elem sizes in
        let+ rest = gen_stages ~elem sh (budget - 1) in
        st :: rest

let gen () : case Gen.t =
  sized (fun size ->
      let* elem = gen_elem in
      let* n =
        frequency
          [ (1, return 0); (9, int_range 1 (max 2 (min 40 (3 * size)))) ]
      in
      let* input = gen_input_elem ~elem ~n in
      let* budget = int_range 0 (2 + size) in
      let+ chain = gen_stages ~elem (Flat n) budget in
      { chain; input })

(* --- shrinking ------------------------------------------------------------- *)

let shrink_stage : Ast.expr Shrink.t = function
  | Ast.Rotate k -> Seq.map (fun k' -> Ast.Rotate k') (Shrink.int k)
  | Ast.Iter_for (k, b) -> Seq.map (fun k' -> Ast.Iter_for (k', b)) (Shrink.int k)
  | Ast.Split p -> Seq.map (fun p' -> Ast.Split p') (Shrink.int_toward 1 p)
  | Ast.Map_nested b ->
      Seq.map (fun ch -> Ast.Map_nested (Ast.of_chain ch)) (Shrink.list (Ast.to_chain b))
  | _ -> Seq.empty

let rec shrink_value : Value.t Shrink.t = function
  | Value.Int i -> Seq.map (fun i' -> Value.Int i') (Shrink.int i)
  | Value.Float f ->
      (* shrink on the half-integer grid the generator draws from *)
      Seq.map
        (fun h -> Value.Float (float_of_int h *. 0.5))
        (Shrink.int (int_of_float (f *. 2.0)))
  | Value.Pair (a, b) ->
      Seq.append
        (Seq.map (fun a' -> Value.Pair (a', b)) (shrink_value a))
        (Seq.map (fun b' -> Value.Pair (a, b')) (shrink_value b))
  | Value.Arr a -> Seq.map (fun a' -> Value.Arr a') (Shrink.array ~elem:shrink_value a)

let shrink : case Shrink.t =
 fun c ->
  Seq.append
    (Seq.map (fun chain -> { c with chain }) (Shrink.list ~elem:shrink_stage c.chain))
    (Seq.map (fun input -> { c with input }) (shrink_value c.input))
