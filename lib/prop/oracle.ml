(* Rule oracle, cost-consistency check and differential oracle. *)

open Transform
open Gen

let rec drop i l = if i <= 0 then l else match l with [] -> [] | _ :: t -> drop (i - 1) t

let rec take i l =
  if i <= 0 then [] else match l with [] -> [] | x :: t -> x :: take (i - 1) t

let apply_rule_somewhere (rule : Rules.rule) chain =
  let len = List.length chain in
  let rec go i =
    if i > len then None
    else
      match rule.Rules.apply_at (drop i chain) with
      | Some (suffix', _) -> Some (take i chain @ suffix')
      | None -> go (i + 1)
  in
  go 0

let vstr v = Fmt.str "%a" Value.pp v
let sim = Machine.Backend.sim ()

(* --- rule oracle ------------------------------------------------------------ *)

(* A known-firing instance of each rule's pattern, with random parameters.
   Returns (pattern stages, ends_scalar). [n] is the array length at the
   injection point (the contexts are length-preserving). *)
let gen_pattern (rule : Rules.rule) ~n : (Ast.expr list * bool) Gen.t option =
  let nonzero g = map (fun k -> if k = 0 then 1 else k) g in
  match rule.Rules.rname with
  | "map-fusion" ->
      Some
        (let* f = Pipe_gen.gen_fn in
         let+ g = Pipe_gen.gen_fn in
         ([ Ast.Map f; Ast.Map g ], false))
  | "map-distribution" ->
      Some
        (let* f = Pipe_gen.gen_fn2_assoc in
         let+ g = Pipe_gen.gen_fn in
         ([ Ast.Foldr_compose (f, g) ], true))
  | "send-fusion" ->
      Some
        (let* a = Pipe_gen.gen_perm_ifn in
         let+ b = Pipe_gen.gen_perm_ifn in
         ([ Ast.Send a; Ast.Send b ], false))
  | "fetch-fusion" ->
      Some
        (let* a = Pipe_gen.gen_fetch_ifn ~n in
         let+ b = Pipe_gen.gen_fetch_ifn ~n in
         ([ Ast.Fetch a; Ast.Fetch b ], false))
  | "rotate-fusion" ->
      Some
        (let* a = int_range (-2 * n) (2 * n) in
         let+ b = int_range (-2 * n) (2 * n) in
         ([ Ast.Rotate a; Ast.Rotate b ], false))
  | "rotate-fetch-fusion" ->
      Some
        (let* k = nonzero (int_range (-2 * n) (2 * n)) in
         let* f = Pipe_gen.gen_fetch_ifn ~n in
         let+ order = bool in
         ((if order then [ Ast.Rotate k; Ast.Fetch f ] else [ Ast.Fetch f; Ast.Rotate k ]), false))
  | "identity-elimination" ->
      Some
        (let* body = Pipe_gen.gen_lp_stage in
         let* k = int_range 0 3 in
         let+ inst =
           oneof_val
             [
               [ Ast.Id ];
               [ Ast.Map Fn.id ];
               [ Ast.Send Fn.i_id ];
               [ Ast.Fetch Fn.i_id ];
               [ Ast.Rotate 0 ];
               [ Ast.Map_nested Ast.Id ];
               [ Ast.Iter_for (0, body) ];
               [ Ast.Iter_for (1, body) ];
               [ Ast.Iter_for (k, Ast.Id) ];
             ]
         in
         (inst, false))
  | "split-combine-elimination" ->
      Some
        (let+ p = int_range 1 (max 1 (min n 4)) in
         ([ Ast.Split p; Ast.Combine ], false))
  | "flattening(map)" ->
      Some
        (let* p = int_range 1 (max 1 (min n 4)) in
         let+ f = Pipe_gen.gen_fn in
         ([ Ast.Split p; Ast.Map_nested (Ast.Map f); Ast.Combine ], false))
  | "flattening(fold)" ->
      Some
        (let* p = int_range 1 (max 1 (min n 4)) in
         let+ f = Pipe_gen.gen_fn2_assoc in
         ([ Ast.Split p; Ast.Map_nested (Ast.Fold f); Ast.Fold f ], true))
  | "commute(map,rotate)" ->
      Some
        (let* k = int_range (-2 * n) (2 * n) in
         let+ f = Pipe_gen.gen_fn in
         ([ Ast.Rotate k; Ast.Map f ], false))
  | "commute(map,fetch)" ->
      Some
        (let* g = Pipe_gen.gen_fetch_ifn ~n in
         let+ f = Pipe_gen.gen_fn in
         ([ Ast.Fetch g; Ast.Map f ], false))
  | "commute(map,send)" ->
      Some
        (let* g = Pipe_gen.gen_perm_ifn in
         let+ f = Pipe_gen.gen_fn in
         ([ Ast.Send g; Ast.Map f ], false))
  | "iterFor-unrolling" ->
      Some
        (let* k = int_range 2 8 in
         let+ body = list_size (int_range 1 3) Pipe_gen.gen_lp_stage in
         ([ Ast.Iter_for (k, Ast.of_chain body) ], false))
  | _ -> None

let gen_rule_case (rule : Rules.rule) : Pipe_gen.case Gen.t =
  match gen_pattern rule ~n:1 with
  | None ->
      (* unknown rule: fall back to random pipelines; the property skips
         cases where the rule never fires *)
      Pipe_gen.gen ()
  | Some _ ->
      let* n = int_range 1 12 in
      let* input = Pipe_gen.gen_input ~n in
      let pat_gen = Option.get (gen_pattern rule ~n) in
      let* pre = Pipe_gen.gen_ctx ~max_stages:2 in
      let* pat, ends_scalar = pat_gen in
      let+ post = if ends_scalar then return [] else Pipe_gen.gen_ctx ~max_stages:2 in
      { Pipe_gen.chain = pre @ pat @ post; input }

(* A generator guaranteed to aim at a firing instance even for rules
   [gen_pattern] has never heard of: rejection-sample random pipelines
   until the rule fires somewhere (bounded; the property skips the rare
   non-firing fallback). This is what lets the soundness sweep iterate
   over *every* rule in [Rules.all] — including ones added later — with a
   meta-test asserting the fire count stayed nonzero. *)
let gen_firing_case (rule : Rules.rule) : Pipe_gen.case Gen.t =
  match gen_pattern rule ~n:1 with
  | Some _ -> gen_rule_case rule
  | None ->
      let rec retry budget =
        let* c = Pipe_gen.gen () in
        if budget <= 0 || apply_rule_somewhere rule c.Pipe_gen.chain <> None then return c
        else retry (budget - 1)
      in
      retry 200

let rule_prop (rule : Rules.rule) (c : Pipe_gen.case) : Runner.result_ =
  match apply_rule_somewhere rule c.Pipe_gen.chain with
  | None -> Runner.Skip_case
  | Some chain' -> (
      let e = Ast.of_chain c.Pipe_gen.chain in
      let e' = Ast.of_chain chain' in
      match Ast.eval e c.Pipe_gen.input with
      | exception Value.Type_error _ -> Runner.Skip_case
      | expected -> (
          match Ast.eval e' c.Pipe_gen.input with
          | exception ex ->
              Runner.Fail_case
                (Printf.sprintf "rewritten program raised %s (rewritten: %s)"
                   (Printexc.to_string ex) (Ast.to_string e'))
          | got ->
              if Value.equal expected got then Runner.Pass_case
              else
                Runner.Fail_case
                  (Printf.sprintf "%s changed meaning: %s <> %s (rewritten: %s)"
                     rule.Rules.rname (vstr expected) (vstr got) (Ast.to_string e'))))

let check_rule ?config (rule : Rules.rule) =
  Runner.check ?config ~shrink:Pipe_gen.shrink ~gen:(gen_firing_case rule)
    ~prop:(rule_prop rule) ()

(* --- cost-model consistency -------------------------------------------------

   If the static cost model ranks the normalised pipeline as cheaper, the
   simulator must not report a regression beyond tolerance. (The model is
   an estimate; the simulator is the ground truth.) *)

let cost_prop ~procs ~tolerance (c : Pipe_gen.case) : Runner.result_ =
  if not (Pipe_gen.spmd_executable c) then Runner.Skip_case
  else
    let n = match c.Pipe_gen.input with Value.Arr a -> Array.length a | _ -> 0 in
    if n < 1 then Runner.Skip_case
    else
      let e = Pipe_gen.expr c in
      let e', _steps = Rewrite.normalize e in
      if Ast.to_string e' = Ast.to_string e then Runner.Skip_case
      else
        let c0 = Cost.estimate_pipeline ~procs ~n e in
        let c1 = Cost.estimate_pipeline ~procs ~n e' in
        if c1 >= c0 then Runner.Pass_case
        else
          try
            let _, s0 = Spmd_exec.run sim ~procs e c.Pipe_gen.input in
            let _, s1 = Spmd_exec.run sim ~procs e' c.Pipe_gen.input in
            let m0 = s0.Machine.Sim.makespan and m1 = s1.Machine.Sim.makespan in
            if m1 <= (m0 *. tolerance) +. 1e-9 then Runner.Pass_case
            else
              Runner.Fail_case
                (Printf.sprintf
                   "cost model claims improvement (%.3g -> %.3g) but simulated makespan \
                    regressed %.3g -> %.3g (rewritten: %s)"
                   c0 c1 m0 m1 (Ast.to_string e'))
          with Spmd_exec.Unsupported _ | Value.Type_error _ -> Runner.Skip_case

let check_cost ?config ~procs ~tolerance () =
  Runner.check ?config ~shrink:Pipe_gen.shrink ~gen:(Pipe_gen.gen ())
    ~prop:(cost_prop ~procs ~tolerance) ()

(* --- differential oracle ---------------------------------------------------- *)

type diff_stats = {
  mutable compared : int;
  mutable sim_ran : int;
  mutable sim_skipped : int;
}

let new_stats () = { compared = 0; sim_ran = 0; sim_skipped = 0 }

let diff_prop ?pool_exec ?stats ~sim_procs (c : Pipe_gen.case) : Runner.result_ =
  let n = match c.Pipe_gen.input with Value.Arr a -> Array.length a | _ -> -1 in
  if n < 0 then Runner.Skip_case (* non-array input (shrink candidates only) *)
  else
    let e = Pipe_gen.expr c in
    match Ast.eval e c.Pipe_gen.input with
    | exception Value.Type_error _ -> Runner.Skip_case
    | expected ->
        let sim_ok = Pipe_gen.spmd_executable c in
        (match stats with
        | Some s ->
            s.compared <- s.compared + 1;
            if sim_ok then s.sim_ran <- s.sim_ran + 1 else s.sim_skipped <- s.sim_skipped + 1
        | None -> ());
        let backends =
          (("host-seq", fun () -> Host_exec.eval e c.Pipe_gen.input)
          :: ("host-opt", fun () -> Host_exec.eval ~optimize:true e c.Pipe_gen.input)
          ::
          (match pool_exec with
          | Some exec ->
              [
                ("host-pool", fun () -> Host_exec.eval ~exec e c.Pipe_gen.input);
                ( "host-pool-opt",
                  fun () -> Host_exec.eval ~exec ~optimize:true e c.Pipe_gen.input );
              ]
          | None -> []))
          @
          if sim_ok then
            List.map
              (fun p ->
                ( Printf.sprintf "sim-p%d" p,
                  fun () -> fst (Spmd_exec.run sim ~procs:p e c.Pipe_gen.input) ))
              sim_procs
          else []
        in
        let rec run = function
          | [] -> Runner.Pass_case
          | (who, f) :: rest -> (
              match f () with
              | exception ex ->
                  Runner.Fail_case
                    (Printf.sprintf "%s raised %s but the reference returned %s" who
                       (Printexc.to_string ex) (vstr expected))
              | got ->
                  if Value.equal expected got then run rest
                  else
                    Runner.Fail_case
                      (Printf.sprintf "%s diverged: %s <> reference %s" who (vstr got)
                         (vstr expected)))
        in
        run backends

let check_differential ?config ?pool_exec ?stats ~sim_procs () =
  Runner.check ?config ~shrink:Pipe_gen.shrink ~gen:(Pipe_gen.gen ())
    ~prop:(diff_prop ?pool_exec ?stats ~sim_procs) ()

(* --- fused-primitive oracle --------------------------------------------------

   The fused skeletons Elementary.map_fold / map_scan / map_compose (over
   the Exec primitives pmap_reduce / pmap_scan, and one pmap of the
   composed function) must agree with their composed two-pass forms on
   every backend.  Cases are drawn from the same element-typed pools as
   the pipeline generator, so the agreement is checked over ints, dyadic
   floats and pairs, at lengths 0..40. *)

type fused_case = {
  felem : Pipe_gen.elem;
  ff : Fn.t;  (* map payload *)
  fop : Fn.t2;  (* associative combine *)
  fg : Fn.t;  (* second map payload, for map_compose *)
  finput : Value.t;
}

let print_fused fc =
  Printf.sprintf "elem=%s map=%s op=%s map2=%s input=%s"
    (Pipe_gen.elem_name fc.felem) fc.ff.Fn.name fc.fop.Fn.name2 fc.fg.Fn.name
    (Fmt.str "%a" Value.pp fc.finput)

let gen_fused_case : fused_case Gen.t =
  let* felem = oneof_val [ Pipe_gen.EInt; Pipe_gen.EFloat; Pipe_gen.EPair ] in
  let* ff = Pipe_gen.gen_fn_of felem in
  let* fop = Pipe_gen.gen_fn2_assoc_of felem in
  let* fg = Pipe_gen.gen_fn_of felem in
  let* n = frequency [ (1, return 0); (6, int_range 1 40) ] in
  let+ finput = Pipe_gen.gen_input_elem ~elem:felem ~n in
  { felem; ff; fop; fg; finput }

let shrink_fused : fused_case Shrink.t =
 fun fc ->
  match fc.finput with
  | Value.Arr a ->
      Seq.map (fun a' -> { fc with finput = Value.Arr a' }) (Shrink.array a)
  | _ -> Seq.empty

let fused_prop ?pool_exec (fc : fused_case) : Runner.result_ =
  let a = Scl.Par_array.of_array (Value.as_arr fc.finput) in
  let n = Scl.Par_array.length a in
  let f = fc.ff.Fn.apply and op = fc.fop.Fn.apply2 and g = fc.fg.Fn.apply in
  let execs =
    ("seq", Scl.Exec.sequential)
    :: (match pool_exec with Some e -> [ ("pool", e) ] | None -> [])
  in
  let fail who what composed fused =
    Runner.Fail_case
      (Printf.sprintf "%s: fused %s diverged: %s <> composed %s (%s)" who what (vstr fused)
         (vstr composed) (print_fused fc))
  in
  let rec run = function
    | [] -> Runner.Pass_case
    | (who, exec) :: rest -> (
        let composed_arr h = Value.Arr (Scl.Par_array.to_array h) in
        (* map_fold vs fold . map (non-empty only; both raise on empty) *)
        let r1 =
          if n = 0 then Runner.Pass_case
          else
            let composed = Scl.Elementary.fold ~exec op (Scl.Elementary.map ~exec f a) in
            let fused = Scl.Elementary.map_fold ~exec op f a in
            if Value.equal composed fused then Runner.Pass_case
            else fail who "map_fold" composed fused
        in
        match r1 with
        | Runner.Fail_case _ -> r1
        | _ -> (
            let composed =
              composed_arr (Scl.Elementary.scan ~exec op (Scl.Elementary.map ~exec f a))
            in
            let fused = composed_arr (Scl.Elementary.map_scan ~exec op f a) in
            if not (Value.equal composed fused) then fail who "map_scan" composed fused
            else
              let composed =
                composed_arr (Scl.Elementary.map ~exec g (Scl.Elementary.map ~exec f a))
              in
              let fused = composed_arr (Scl.Elementary.map_compose ~exec g f a) in
              if not (Value.equal composed fused) then fail who "map_compose" composed fused
              else run rest))
  in
  run execs

let check_fused ?config ?pool_exec () =
  Runner.check ?config ~shrink:shrink_fused ~gen:gen_fused_case ~prop:(fused_prop ?pool_exec)
    ()
