(* Run a skeleton pipeline on the host Scl skeletons. Every array primitive
   goes through the Scl layer so the pipeline actually exercises the chosen
   Exec backend (sequential or pool). Host skeletons report bad movements
   with Invalid_argument — translated here to Value.Type_error so the
   backends share one error taxonomy (the reference interpreter raises
   Type_error on the same inputs).

   Unlike Ast.eval, execution is fusion-aware: the pipeline is walked as a
   chain (application order) and maximal runs of [Map] stages are composed
   into one closure, dispatched to the fused Exec primitives — a map run
   ending in [Fold] becomes one [map_fold] pass, ending in [Scan] one
   [map_scan] pass, and a bare multi-map run a single [map_compose]
   traversal. No intermediate Value.Arr is materialised between fused
   stages. Fusion is meaning-preserving by construction (same functions,
   same application order per element); the differential oracle locks this
   against the reference interpreter.

   Nested regions are evaluated materialised: [Split] builds the groups,
   [Map_nested] runs its body on each, and [Combine] concatenates them,
   exactly as the reference interpreter does. Segmented (flattened)
   execution of nested regions is [Spmd_exec]'s. *)

let wrap name f =
  try f () with Invalid_argument m -> Value.type_error "%s: %s" name m

let pa v = Scl.Par_array.unsafe_of_array (Value.as_arr v)
let arr a = Value.Arr (Scl.Par_array.unsafe_to_array a)

(* Compose a run of map stages, first stage innermost. *)
let compose_run fns x = List.fold_left (fun v (f : Fn.t) -> f.Fn.apply v) x fns

(* --- flat fast path --------------------------------------------------------

   When a maximal map run (and its fold/scan consumer, if any) consists
   entirely of [Flat_fns]-recognised float primitives AND the value is an
   all-float array, the run dispatches to the unboxed [Scl.Flat_exec]
   kernels: one conversion to flat storage, the fused kernel, one
   conversion back.  Bitwise-identical to the boxed path by construction —
   the same float operations are applied to the same elements in the same
   order (a multi-map run fuses to one closure over unboxed floats, the
   same composition [compose_run] builds over boxed values). *)

let flat_ops_of fns =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | f :: tl -> (
        match Flat_fns.fun1_of f with Some op -> go (op :: acc) tl | None -> None)
  in
  go [] fns

let fuse_ops = function
  | [] -> Scl.Flat_exec.Id
  | [ op ] -> op
  | ops ->
      Scl.Flat_exec.Fun1
        (fun x -> List.fold_left (fun acc op -> Scl.Flat_exec.apply1 op acc) x ops)

let flat_of_value v =
  match v with
  | Value.Arr a when Array.for_all (function Value.Float _ -> true | _ -> false) a ->
      Some (Scl.Flat.of_float_array (Array.map Value.as_float a))
  | _ -> None

let value_of_flat fa =
  Value.Arr (Array.map (fun x -> Value.Float x) (Scl.Flat.to_float_array fa))

(* Try to run [map fns . consumer] (consumer = head of [tl]) on the flat
   tier; [Some (result, remaining_chain)] on success. Empty-array edge
   cases keep the boxed path's behaviour exactly (fold: Type_error; scan:
   empty result) by bailing out to it. *)
let flat_dispatch ~(fx : Scl.Flat_exec.t) fns tl v :
    (Value.t * Ast.expr list) option =
  match flat_ops_of fns with
  | None -> None
  | Some ops -> (
      match flat_of_value v with
      | None -> None
      | Some fa -> (
          let op1 = fuse_ops ops in
          match tl with
          | Ast.Fold op :: tl' when Flat_fns.fun2_of op <> None && Scl.Flat.length fa > 0 ->
              let op2 = Option.get (Flat_fns.fun2_of op) in
              Some (Value.Float (fx.Scl.Flat_exec.fmap_fold op1 op2 fa), tl')
          | Ast.Scan op :: tl' when Flat_fns.fun2_of op <> None && Scl.Flat.length fa > 0 ->
              let op2 = Option.get (Flat_fns.fun2_of op) in
              Some (value_of_flat (fx.Scl.Flat_exec.fmap_scan op1 op2 fa), tl')
          | tl' ->
              if ops = [] then None (* bare consumer was not eligible: no work here *)
              else Some (value_of_flat (fx.Scl.Flat_exec.fmap op1 fa), tl')))

let rec eval_node ~exec ~fx (e : Ast.expr) (v : Value.t) : Value.t =
  match e with
  | Ast.Id -> v
  | Ast.Compose _ -> eval_chain ~exec ~fx (Ast.to_chain e) v
  | Ast.Map f -> wrap "map" (fun () -> arr (Scl.Elementary.map ~exec f.Fn.apply (pa v)))
  | Ast.Imap f ->
      wrap "imap" (fun () ->
          arr (Scl.Elementary.imap ~exec (fun i x -> f.Fn.apply2 (Value.Int i) x) (pa v)))
  | Ast.Fold f ->
      let a = pa v in
      if Scl.Par_array.length a = 0 then Value.type_error "fold: empty array";
      wrap "fold" (fun () -> Scl.Elementary.fold ~exec f.Fn.apply2 a)
  | Ast.Scan f ->
      let a = pa v in
      if Scl.Par_array.length a = 0 then Value.Arr [||]
      else wrap "scan" (fun () -> arr (Scl.Elementary.scan ~exec f.Fn.apply2 a))
  | Ast.Foldr_compose (f, g) ->
      (* Inherently sequential source pattern; computed directly, as on the
         root rank in Spmd_exec. *)
      let a = Value.as_arr v in
      if Array.length a = 0 then Value.type_error "foldr: empty array";
      let acc = ref (g.Fn.apply a.(Array.length a - 1)) in
      for i = Array.length a - 2 downto 0 do
        acc := f.Fn.apply2 (g.Fn.apply a.(i)) !acc
      done;
      !acc
  | Ast.Send f ->
      let a = pa v in
      let n = Scl.Par_array.length a in
      if n = 0 then v
      else
        wrap "send" (fun () -> arr (Scl.Communication.send_one ~exec (fun i -> f.Fn.iapply ~n i) a))
  | Ast.Fetch f ->
      let a = pa v in
      let n = Scl.Par_array.length a in
      wrap "fetch" (fun () -> arr (Scl.Communication.fetch ~exec (fun i -> f.Fn.iapply ~n i) a))
  | Ast.Rotate k ->
      let a = pa v in
      if Scl.Par_array.length a = 0 then v
      else wrap "rotate" (fun () -> arr (Scl.Communication.rotate ~exec k a))
  | Ast.Split p ->
      if p <= 0 then Value.type_error "split: non-positive part count";
      wrap "split" (fun () ->
          let groups = Scl.Partition.split (Scl.Partition.Block p) (pa v) in
          Value.Arr (Array.map (fun g -> arr g) (Scl.Par_array.unsafe_to_array groups)))
  | Ast.Combine ->
      wrap "combine" (fun () ->
          let groups = Value.as_arr v in
          let nested =
            Scl.Par_array.unsafe_of_array
              (Array.map (fun g -> Scl.Par_array.unsafe_of_array (Value.as_arr g)) groups)
          in
          arr (Scl.Partition.combine nested))
  | Ast.Map_nested body ->
      let chain = Ast.to_chain body in
      wrap "map_nested" (fun () ->
          arr (Scl.Elementary.map ~exec (fun g -> eval_chain ~exec ~fx chain g) (pa v)))
  | Ast.Iter_for (k, body) ->
      if k < 0 then Value.type_error "iterFor: negative count";
      let chain = Ast.to_chain body in
      let acc = ref v in
      for _ = 1 to k do
        acc := eval_chain ~exec ~fx chain !acc
      done;
      !acc

and eval_chain ~exec ~fx (chain : Ast.expr list) (v : Value.t) : Value.t =
  match chain with
  | [] -> v
  | Ast.Map f :: rest ->
      (* Collect the maximal run of consecutive maps. *)
      let rec collect acc = function
        | Ast.Map g :: tl -> collect (g :: acc) tl
        | tl -> (List.rev acc, tl)
      in
      let fns, tl = collect [ f ] rest in
      let g = compose_run fns in
      (match flat_dispatch ~fx fns tl v with
      | Some (r, tl') -> eval_chain ~exec ~fx tl' r
      | None -> (
      match tl with
      | Ast.Fold op :: tl' ->
          let a = pa v in
          if Scl.Par_array.length a = 0 then Value.type_error "fold: empty array";
          let r = wrap "fold" (fun () -> Scl.Elementary.map_fold ~exec op.Fn.apply2 g a) in
          eval_chain ~exec ~fx tl' r
      | Ast.Scan op :: tl' ->
          let a = pa v in
          let r =
            if Scl.Par_array.length a = 0 then Value.Arr [||]
            else
              wrap "scan" (fun () -> arr (Scl.Elementary.map_scan ~exec op.Fn.apply2 g a))
          in
          eval_chain ~exec ~fx tl' r
      | tl' ->
          let r =
            match fns with
            | [ f1 ] -> wrap "map" (fun () -> arr (Scl.Elementary.map ~exec f1.Fn.apply (pa v)))
            | fns ->
                (* Multi-map run with no fusable consumer: one traversal of
                   the composed closure via the fused map-map primitive. *)
                let rec split_last acc = function
                  | [ last ] -> (List.rev acc, last)
                  | x :: xs -> split_last (x :: acc) xs
                  | [] -> assert false
                in
                let prefix, last = split_last [] fns in
                wrap "map" (fun () ->
                    arr (Scl.Elementary.map_compose ~exec last.Fn.apply (compose_run prefix) (pa v)))
          in
          eval_chain ~exec ~fx tl' r))
  | ((Ast.Fold _ | Ast.Scan _) :: _) as chain' -> (
      (* A bare fold/scan over recognised float data also runs flat. *)
      match flat_dispatch ~fx [] chain' v with
      | Some (r, tl') -> eval_chain ~exec ~fx tl' r
      | None -> (
          match chain' with
          | stage :: rest -> eval_chain ~exec ~fx rest (eval_node ~exec ~fx stage v)
          | [] -> assert false))
  | stage :: rest -> eval_chain ~exec ~fx rest (eval_node ~exec ~fx stage v)

let eval ?(exec = Scl.Exec.sequential) ?(fx = Scl.Flat_exec.sequential) ?(optimize = false)
    (e : Ast.expr) (v : Value.t) : Value.t =
  let e =
    if not optimize then e
    else
      let n = match v with Value.Arr a -> Some (Array.length a) | _ -> None in
      (Optimizer.optimize ?n e).Optimizer.output
  in
  eval_chain ~exec ~fx (Ast.to_chain e) v
