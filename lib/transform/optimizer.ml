(* Cost-guided optimisation — the compile-time loop sketched in the
   paper's Section 4.

   Two strategies share one report shape:

   - [Greedy] (the default, unchanged since PR 3): normalise with the rule
     set in leftmost/priority order, keep the result only if the static
     cost model agrees it is no worse.

   - [Beam {width; depth}]: cost-model-driven search over the whole rule
     algebra. The neighbourhood is [Rewrite.step_all] (every rule at every
     position, including inside mapn/iter bodies); states are ranked by
     the deterministic total order (estimated cost, AST size, printed
     form) so ties never depend on enumeration order; at most [width]
     states survive per generation and a run explores at most [depth]
     generations. The search is restarted from each improvement until a
     fixpoint, and greedy normalisation (with both the search rule set
     and the default set) seeds the portfolio each round — so the chosen
     plan is never worse than the greedy plan, and [optimize] is
     idempotent by construction. *)

type strategy = Greedy | Beam of { width : int; depth : int }

let default_beam = Beam { width = 8; depth = 24 }

type report = {
  input : Ast.expr;
  output : Ast.expr;
  steps : Rewrite.step list;
  cost_before : float;
  cost_after : float;
  strategy : strategy;
  explored : int;  (** distinct programs visited (1 + steps for greedy) *)
}

(* Deterministic total order on candidate programs: cheapest first, then
   smallest, then lexicographic on the printed form. The string component
   makes the order total, so the search result is independent of the
   enumeration order of [step_all]. *)
let cmp_order (c1, s1, t1) (c2, s2, t2) =
  let c = Float.compare c1 c2 in
  if c <> 0 then c
  else
    let s = Int.compare s1 s2 in
    if s <> 0 then s else String.compare t1 t2

let lt o1 o2 = cmp_order o1 o2 < 0

let rec take n = function [] -> [] | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl

(* One bounded beam run from [seed]. Returns the best program found, the
   rewrite path that reached it, and the number of distinct programs
   visited. *)
let beam_from ~order ~width ~depth rules seed =
  let seen = Hashtbl.create 64 in
  Hashtbl.replace seen (Ast.to_string seed) ();
  let best = ref (order seed, seed, []) in
  let frontier = ref [ (order seed, seed, []) ] in
  (try
     for _ = 1 to depth do
       let candidates =
         List.concat_map
           (fun (_, e0, path) ->
             let before = Ast.to_string e0 in
             List.filter_map
               (fun (rname, e1) ->
                 let key = Ast.to_string e1 in
                 if Hashtbl.mem seen key then None
                 else begin
                   Hashtbl.replace seen key ();
                   let s = { Rewrite.rule = rname; before; after = key } in
                   Some (order e1, e1, s :: path)
                 end)
               (Rewrite.step_all rules e0))
           !frontier
       in
       if candidates = [] then raise Exit;
       let sorted =
         List.sort (fun (o1, _, _) (o2, _, _) -> cmp_order o1 o2) candidates
       in
       (match sorted with
       | ((o, _, _) as head) :: _ ->
           let bo, _, _ = !best in
           if lt o bo then best := head
       | [] -> ());
       frontier := take width sorted
     done
   with Exit -> ());
  let _, be, bpath = !best in
  (be, List.rev bpath, Hashtbl.length seen)

let optimize ?(procs = 16) ?(n = 1 lsl 16) ?rules ?(strategy = Greedy)
    (e : Ast.expr) : report =
  let cost_of e' = Cost.estimate_pipeline ~procs ~n e' in
  let cost_before = cost_of e in
  match strategy with
  | Greedy ->
      let rules = Option.value rules ~default:Rules.default in
      let e', steps = Rewrite.normalize ~rules e in
      let cost_after = cost_of e' in
      if cost_after <= cost_before then
        { input = e; output = e'; steps; cost_before; cost_after; strategy;
          explored = 1 + List.length steps }
      else
        { input = e; output = e; steps = []; cost_before; cost_after = cost_before;
          strategy; explored = 1 + List.length steps }
  | Beam { width; depth } ->
      let rules = Option.value rules ~default:Rules.all in
      let width = max 1 width and depth = max 0 depth in
      let order e' = (cost_of e', Ast.size e', Ast.to_string e') in
      let greedy_candidate rs cur =
        let g, g_steps = Rewrite.normalize ~rules:rs cur in
        (order g, g, g_steps)
      in
      (* Restart from each improvement; every round's portfolio contains
         the current program, greedy normalisation (search rules and the
         default rules), and a beam run — the strict minimum is kept, so
         the loop terminates (the order is well-founded on the finite set
         of visited programs) and the result is a fixpoint: running
         [optimize] on the output changes nothing. *)
      let rec improve rounds cur acc_steps explored =
        if rounds <= 0 then (cur, acc_steps, explored)
        else
          let b, b_steps, b_explored = beam_from ~order ~width ~depth rules cur in
          let explored = explored + b_explored in
          let candidates =
            (order cur, cur, [])
            :: greedy_candidate rules cur
            :: greedy_candidate Rules.default cur
            :: [ (order b, b, b_steps) ]
          in
          let (co, ce, csteps) =
            List.fold_left
              (fun (bo, be, bs) (o, e', s) ->
                if lt o bo then (o, e', s) else (bo, be, bs))
              (List.hd candidates) (List.tl candidates)
          in
          if not (lt co (order cur)) then (cur, acc_steps, explored)
          else improve (rounds - 1) ce (acc_steps @ csteps) explored
      in
      let out, steps, explored = improve 32 e [] 0 in
      let cost_after = cost_of out in
      { input = e; output = out; steps; cost_before; cost_after; strategy; explored }

let speedup r = if r.cost_after > 0.0 then r.cost_before /. r.cost_after else Float.infinity

let strategy_name = function
  | Greedy -> "greedy"
  | Beam { width; depth } -> Printf.sprintf "beam(w=%d,d=%d)" width depth

let pp_report ppf r =
  Fmt.pf ppf
    "@[<v>input : %a@ output: %a@ est. cost %.3g s -> %.3g s (x%.2f)@ strategy %s, %d \
     program(s) explored@ %a@]"
    Ast.pp r.input Ast.pp r.output r.cost_before r.cost_after (speedup r)
    (strategy_name r.strategy) r.explored Rewrite.pp_derivation r.steps
