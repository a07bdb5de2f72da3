(* The rewrite engine: slide each rule over the chain view of the pipeline,
   recurse into nested programs, and iterate to a fixpoint.  Every applied
   rule is logged, so optimisation reports can show the derivation — the
   paper's "meaning-preserving transformation" story made auditable. *)

open Ast

type step = { rule : string; before : string; after : string }

(* Apply the first rule that matches anywhere in the chain (leftmost
   position, rules in priority order at each position). *)
let rec try_rules_at rules chain =
  let rec try_rules = function
    | [] -> None
    | (r : Rules.rule) :: rest -> (
        match r.Rules.apply_at chain with
        | Some (chain', _) -> Some (r.Rules.rname, chain')
        | None -> try_rules rest)
  in
  match try_rules rules with
  | Some _ as hit -> hit
  | None -> (
      match chain with
      | [] -> None
      | stage :: tail -> (
          (* Recurse inside nesting before sliding right. *)
          match rewrite_stage rules stage with
          | Some (rname, stage') -> Some (rname, stage' :: tail)
          | None -> (
              match try_rules_at rules tail with
              | Some (rname, tail') -> Some (rname, stage :: tail')
              | None -> None)))

and rewrite_stage rules = function
  | Map_nested e -> (
      match step_once rules e with
      | Some (rname, e') -> Some (rname, Map_nested e')
      | None -> None)
  | Iter_for (k, e) -> (
      match step_once rules e with
      | Some (rname, e') -> Some (rname, Iter_for (k, e'))
      | None -> None)
  | Id | Compose _ | Map _ | Imap _ | Fold _ | Scan _ | Foldr_compose _ | Send _ | Fetch _
  | Rotate _ | Split _ | Combine ->
      None

and step_once rules e =
  match try_rules_at rules (to_chain e) with
  | Some (rname, chain') -> Some (rname, of_chain chain')
  | None -> None

(* Every single-step rewrite of [e]: each rule at each chain position,
   plus rewrites inside [mapn] / [iter] bodies. This is the neighbourhood
   function of the optimizer's search — where [step_once] commits to the
   first hit, [step_all] returns the whole frontier. *)
let step_all rules e : (string * expr) list =
  let rec chain_steps chain =
    match chain with
    | [] -> []
    | stage :: tail ->
        let here =
          List.filter_map
            (fun (r : Rules.rule) ->
              match r.Rules.apply_at chain with
              | Some (chain', _) -> Some (r.Rules.rname, chain')
              | None -> None)
            rules
        in
        let inside =
          match stage with
          | Map_nested b ->
              List.map (fun (rn, b') -> (rn, Map_nested b' :: tail)) (expr_steps b)
          | Iter_for (k, b) ->
              List.map (fun (rn, b') -> (rn, Iter_for (k, b') :: tail)) (expr_steps b)
          | _ -> []
        in
        here @ inside @ List.map (fun (rn, tail') -> (rn, stage :: tail')) (chain_steps tail)
  and expr_steps e = List.map (fun (rn, c) -> (rn, of_chain c)) (chain_steps (to_chain e)) in
  expr_steps e

(* The step cap of [normalize]. *)
let max_steps = 1000

let normalize ?(rules = Rules.default) e : expr * step list =
  let rec go steps n e =
    if n >= max_steps then (e, List.rev steps)
    else
      match step_once rules e with
      | None -> (e, List.rev steps)
      | Some (rname, e') ->
          let s = { rule = rname; before = to_string e; after = to_string e' } in
          go (s :: steps) (n + 1) e'
  in
  go [] 0 e

let pp_step ppf s = Fmt.pf ppf "@[<v 2>[%s]@ %s@ => %s@]" s.rule s.before s.after

let pp_derivation ppf steps = Fmt.pf ppf "@[<v>%a@]" (Fmt.list pp_step) steps
