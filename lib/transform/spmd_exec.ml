(* Execute a skeleton pipeline as one SPMD program over the Dvec skeleton
   templates, on whichever engine the backend value names.  On the
   simulator this is the ground truth behind the static cost model: the
   ablation benchmarks run the same pipeline before and after
   transformation and compare simulated makespans.  On every engine the
   test suite checks the results still agree with the reference
   interpreter.

   Nested pipelines run *flat*: [Split] attaches a replicated segment
   descriptor to the block-distributed payload (no data movement — block
   boundaries are computed, not shipped), [Map_nested] executes its body as
   segmented global operations over the flat payload, and [Combine] drops
   the descriptor.  This is the paper's flattening story realised at the
   executor: the segmented map of [map f] is the flat [map f], the
   segmented scan is a flag-lifted flat scan, and the segmented fold is a
   local partial pass plus a small allgather of per-segment partials.

   Only one level of nesting is supported (the flattening rules never need
   more); deeper nesting and group-level operations other than
   [Combine]/[Map_nested] on a segmented value raise {!Unsupported}. *)

open Machine

exception Unsupported of string

type state =
  | V of Value.t Scl_sim.Dvec.t  (* a distributed ParArray *)
  | S of Value.t  (* a replicated scalar (after fold / foldr) *)
  | Seg of Value.t Scl_sim.Dvec.t * int array
      (* a split ParArray: flat payload + replicated segment bounds *)

(* --- segment descriptor helpers (replicated, so every rank agrees) --------

   The descriptor is [Split]'s block bounds: starts.(j) is the global index
   of the first element of segment j, and starts.(s) the payload's total, so
   segment j holds starts.(j+1) - starts.(j) elements. *)

(* The segment containing global index g: the last j with starts.(j) <= g,
   which skips empty segments. Requires 0 <= g < total. *)
let seg_of starts g =
  let lo = ref 0 and hi = ref (Array.length starts - 1) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if g < starts.(mid) then hi := mid else lo := mid
  done;
  !lo

(* (segment, index within the segment) of global index g. *)
let seg_local starts g =
  let j = seg_of starts g in
  (j, g - starts.(j))

(* A body can evaluate to the identity on scalar group elements (Id chains,
   zero-count iterations); anything else applied to a scalar is the
   reference interpreter's type error. *)
let rec vacuous = function
  | Ast.Id -> true
  | Ast.Compose (f, g) -> vacuous f && vacuous g
  | Ast.Iter_for (k, b) -> k = 0 || vacuous b
  | _ -> false

(* The paper's synchronous semantics: the composition point between two
   skeletons models a barrier synchronisation, so every primitive stage
   ends with a group barrier.  (This is exactly what map fusion saves.) *)
let rec exec (comm : Comm.t) (e : Ast.expr) (st : state) : state =
  match e with
  | Ast.Id -> st
  | Ast.Compose (f, g) -> exec comm f (exec comm g st)
  | _ ->
      let st' = exec_prim comm e st in
      Comm.barrier comm;
      st'

and exec_prim (comm : Comm.t) (e : Ast.expr) (st : state) : state =
  let the_vec = function
    | V dv -> dv
    | S _ -> Value.type_error "pipeline applies an array skeleton to a scalar"
    | Seg _ ->
        raise
          (Unsupported
             "group-level operation on a segmented vector (only combine / map_nested \
              execute on groups); flatten first")
  in
  match e with
  | Ast.Id -> st
  | Ast.Compose (f, g) -> exec comm f (exec comm g st)
  | Ast.Map f -> V (Scl_sim.Dvec.map ~flops_per_elem:f.Fn.cost f.Fn.apply (the_vec st))
  | Ast.Imap f ->
      V
        (Scl_sim.Dvec.imap ~flops_per_elem:f.Fn.cost2
           (fun i x -> f.Fn.apply2 (Value.Int i) x)
           (the_vec st))
  | Ast.Fold f ->
      let dv = the_vec st in
      if Scl_sim.Dvec.total dv = 0 then Value.type_error "fold: empty array";
      S (Scl_sim.Dvec.fold ~flops_per_elem:f.Fn.cost2 f.Fn.apply2 dv)
  | Ast.Scan f -> V (Scl_sim.Dvec.scan ~flops_per_elem:f.Fn.cost2 f.Fn.apply2 (the_vec st))
  | Ast.Foldr_compose (f, g) ->
      (* Inherently sequential: collect everything at the root, compute
         there, broadcast the result. *)
      let dv = the_vec st in
      let all = Scl_sim.Dvec.gather ~root:0 dv in
      let result =
        match all with
        | Some a ->
            if Array.length a = 0 then Value.type_error "foldr: empty array";
            Comm.work_flops comm (Array.length a * (f.Fn.cost2 + g.Fn.cost));
            let acc = ref (g.Fn.apply a.(Array.length a - 1)) in
            for i = Array.length a - 2 downto 0 do
              acc := f.Fn.apply2 (g.Fn.apply a.(i)) !acc
            done;
            Some !acc
        | None -> None
      in
      S (Comm.bcast comm ~root:0 result)
  | Ast.Rotate k -> V (Scl_sim.Dvec.rotate k (the_vec st))
  | Ast.Fetch f ->
      let dv = the_vec st in
      let n = Scl_sim.Dvec.total dv in
      V
        (Scl_sim.Dvec.fetch
           (fun i ->
             let s = f.Fn.iapply ~n i in
             if s < 0 || s >= n then Value.type_error "fetch %s: source out of range" f.Fn.iname;
             s)
           dv)
  | Ast.Send f ->
      let dv = the_vec st in
      let n = Scl_sim.Dvec.total dv in
      let sent =
        Scl_sim.Dvec.send
          (fun i ->
            let d = f.Fn.iapply ~n i in
            if d < 0 || d >= n then
              Value.type_error "send %s: destination out of range" f.Fn.iname;
            [ d ])
          dv
      in
      (* permutation: each slot received exactly one element *)
      V
        (Scl_sim.Dvec.map ~flops_per_elem:1
           (fun arrivals ->
             match Array.length arrivals with
             | 1 -> arrivals.(0)
             | k -> Value.type_error "send: %d arrivals at one site (not a permutation)" k)
           sent)
  | Ast.Iter_for (k, body) ->
      if k < 0 then Value.type_error "iterFor: negative count";
      let st = ref st in
      for _ = 1 to k do
        st := exec comm body !st
      done;
      !st
  | Ast.Split p -> (
      match st with
      | V dv ->
          if p <= 0 then Value.type_error "split: non-positive part count";
          Seg (dv, Ast.block_bounds ~total:(Scl_sim.Dvec.total dv) ~parts:p)
      | S _ -> Value.type_error "pipeline applies an array skeleton to a scalar"
      | Seg _ -> raise (Unsupported "nesting deeper than one level is not executable; flatten first"))
  | Ast.Combine -> (
      match st with
      | Seg (dv, _) -> V dv (* the payload never left its flat distribution *)
      | V _ -> Value.type_error "combine: elements are not groups"
      | S _ -> Value.type_error "pipeline applies an array skeleton to a scalar")
  | Ast.Map_nested body -> (
      match st with
      | Seg (dv, starts) -> seg_exec comm starts (Ast.to_chain body) dv
      | V dv ->
          (* Flat elements are scalars: only identity bodies evaluate. *)
          if vacuous body then V dv
          else Value.type_error "map_nested: elements are not groups"
      | S _ -> Value.type_error "pipeline applies an array skeleton to a scalar")

(* --- segmented global operations ------------------------------------------

   Execute a nested body over the flat payload of [Split]'s output.  Every
   operation is phrased as a flat Dvec collective with indices remapped
   through the (replicated) segment descriptor, so communication stays
   exactly as distributed as the flat case — the executable content of the
   flattening rules. *)
and seg_exec comm starts chain dv : state =
  let rec go chain dv =
    match chain with
    | [] -> Seg (dv, starts)
    | stage :: rest -> (
        match stage with
        | Ast.Id -> go rest dv
        | Ast.Compose _ -> go (Ast.to_chain stage @ rest) dv
        | Ast.Map f -> go rest (Scl_sim.Dvec.map ~flops_per_elem:f.Fn.cost f.Fn.apply dv)
        | Ast.Imap f ->
            (* the index seen inside a group is local to the segment *)
            go rest
              (Scl_sim.Dvec.imap ~flops_per_elem:f.Fn.cost2
                 (fun g x ->
                   let _, i = seg_local starts g in
                   f.Fn.apply2 (Value.Int i) x)
                 dv)
        | Ast.Scan f ->
            (* classic segmented scan: lift the operator over (start?, value)
               pairs — the lifted operator is associative whenever f is *)
            let tagged =
              Scl_sim.Dvec.imap ~flops_per_elem:0
                (fun g x -> (g = starts.(seg_of starts g), x))
                dv
            in
            let scanned =
              Scl_sim.Dvec.scan ~flops_per_elem:f.Fn.cost2
                (Scl.Nested.segmented_op f.Fn.apply2)
                tagged
            in
            go rest (Scl_sim.Dvec.map ~flops_per_elem:0 snd scanned)
        | Ast.Rotate k ->
            go rest
              (Scl_sim.Dvec.fetch
                 (fun g ->
                   let j, i = seg_local starts g in
                   let l = starts.(j + 1) - starts.(j) in
                   starts.(j) + ((((i + k) mod l) + l) mod l))
                 dv)
        | Ast.Fetch f ->
            go rest
              (Scl_sim.Dvec.fetch
                 (fun g ->
                   let j, i = seg_local starts g in
                   let l = starts.(j + 1) - starts.(j) in
                   let s = f.Fn.iapply ~n:l i in
                   if s < 0 || s >= l then
                     Value.type_error "fetch %s: source out of range" f.Fn.iname;
                   starts.(j) + s)
                 dv)
        | Ast.Send f ->
            let sent =
              Scl_sim.Dvec.send
                (fun g ->
                  let j, i = seg_local starts g in
                  let l = starts.(j + 1) - starts.(j) in
                  let d = f.Fn.iapply ~n:l i in
                  if d < 0 || d >= l then
                    Value.type_error "send %s: destination out of range" f.Fn.iname;
                  [ starts.(j) + d ])
                dv
            in
            go rest
              (Scl_sim.Dvec.map ~flops_per_elem:1
                 (fun arrivals ->
                   match Array.length arrivals with
                   | 1 -> arrivals.(0)
                   | _ -> Value.type_error "send %s: not a permutation" f.Fn.iname)
                 sent)
        | Ast.Fold f ->
            let flat = seg_fold comm f starts dv in
            (* per-segment scalars: any further array stage in the body is
               the reference interpreter's type error *)
            if List.concat_map Ast.to_chain rest <> [] then
              Value.type_error "pipeline applies an array skeleton to a scalar"
            else V flat
        | Ast.Iter_for (k, body) ->
            if k < 0 then Value.type_error "iterFor: negative count";
            let unrolled = List.concat (List.init k (fun _ -> Ast.to_chain body)) in
            go (unrolled @ rest) dv
        | Ast.Foldr_compose _ ->
            raise
              (Unsupported
                 "foldr inside map_nested is not executable; rewrite with map-distribution \
                  first")
        | Ast.Split _ | Ast.Combine | Ast.Map_nested _ ->
            raise
              (Unsupported "nesting deeper than one level is not executable; flatten first"))
  in
  go chain dv

(* Segmented reduction: a local partial pass over the owned slice of each
   segment, then an allgather of the (segment, partial) pairs — traffic is
   proportional to segments x processors, not to n — combined in global
   index order on every rank, and the s results re-distributed block-wise. *)
and seg_fold comm (f : Fn.t2) starts dv : Value.t Scl_sim.Dvec.t =
  let s = Array.length starts - 1 in
  for j = 0 to s - 1 do
    if starts.(j + 1) = starts.(j) then Value.type_error "fold: empty array"
  done;
  let loc = Scl_sim.Dvec.local dv and off = Scl_sim.Dvec.offset dv in
  let partials = ref [] in
  Array.iteri
    (fun i x ->
      let j = seg_of starts (off + i) in
      match !partials with
      | (j', acc) :: tl when j' = j -> partials := (j, f.Fn.apply2 acc x) :: tl
      | _ -> partials := (j, x) :: !partials)
    loc;
  Comm.work_flops comm (f.Fn.cost2 * Array.length loc);
  let all = Comm.allgather comm (Array.of_list (List.rev !partials)) in
  let acc : Value.t option array = Array.make s None in
  Array.iter
    (Array.iter (fun (j, v) ->
         acc.(j) <- Some (match acc.(j) with None -> v | Some a -> f.Fn.apply2 a v)))
    all;
  Comm.work_flops comm (f.Fn.cost2 * s);
  let results =
    Array.map (function Some v -> v | None -> Value.type_error "fold: empty array") acc
  in
  let b = Scl_sim.Dvec.block_bounds ~total:s ~parts:(Comm.size comm) in
  let me = Comm.rank comm in
  Scl_sim.Dvec.of_local comm (Array.sub results b.(me) (b.(me + 1) - b.(me)))

let run backend ~procs (e : Ast.expr) (input : Value.t) =
  (* The input's shape is checked here, in the caller, before any rank
     runs: on procs an exception raised inside a rank comes home as
     [Procs.Child_failure], so this check is what keeps a scalar input a
     [Value.Type_error] on every engine. *)
  let elems = Value.as_arr input in
  Scl_sim.Spmd.run backend ~procs (fun comm ->
      let dv =
        Scl_sim.Dvec.scatter comm ~root:0 (if Comm.rank comm = 0 then Some elems else None)
      in
      let final = exec comm e (V dv) in
      match final with
      | V dv -> Scl_sim.Dvec.gather ~root:0 dv |> Option.map (fun a -> Value.Arr a)
      | S v -> if Comm.rank comm = 0 then Some v else None
      | Seg (dv, starts) ->
          (* pipeline ends grouped: regroup the gathered payload *)
          Scl_sim.Dvec.gather ~root:0 dv
          |> Option.map (fun a ->
                 Value.Arr
                   (Array.init (Array.length starts - 1) (fun j ->
                        Value.Arr (Array.sub a starts.(j) (starts.(j + 1) - starts.(j)))))))
