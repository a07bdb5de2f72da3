(* A static cost model over the skeleton AST, in the machine's cost
   parameters: how long one application of the pipeline to an n-element
   ParArray takes on p processors.

   The model follows the usual BSP-style accounting for skeleton templates:
   - elementwise stages: (n/p) applications of the payload function, plus a
     barrier to close the superstep;
   - reductions/scans:   local pass + log p combine rounds of messages;
   - communication:      alpha-beta transfer of the moved bytes;
   - Foldr_compose:      sequential (n applications on one processor) —
     which is exactly why the map-distribution rule pays off.

   It is an *estimate* used to rank rewrites; the simulator is the
   ground truth (and the test suite checks the model ranks pipelines in the
   same order as the simulator on the ablation workloads). *)

open Machine

let word_bytes = 8

let cm = Cost_model.ap1000

let ceil_div a b = (a + b - 1) / b

let log2_ceil p =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) ((n + 1) / 2) in
  go 0 p

let flop k = Cost_model.flops cm k
let barrier procs = Cost_model.barrier_time cm ~procs

let msg words =
  Cost_model.transfer_time cm ~hops:1 ~bytes:(words * word_bytes)
  +. cm.Cost_model.send_overhead +. cm.Cost_model.recv_overhead

let elementwise ~procs ~n fn_cost = flop (ceil_div n procs * fn_cost) +. barrier procs

let reduce_rounds ~procs fn_cost = float_of_int (log2_ceil procs) *. (msg 1 +. flop fn_cost)

let rec estimate ~procs ~n (e : Ast.expr) : float =
  match e with
  | Ast.Id -> 0.0
  | Ast.Compose (f, g) -> estimate ~procs ~n g +. estimate ~procs ~n f
  | Ast.Map f -> elementwise ~procs ~n f.Fn.cost
  | Ast.Imap f -> elementwise ~procs ~n f.Fn.cost2
  | Ast.Fold f -> flop (ceil_div n procs * f.Fn.cost2) +. reduce_rounds ~procs f.Fn.cost2
  | Ast.Scan f -> flop (2 * ceil_div n procs * f.Fn.cost2) +. reduce_rounds ~procs f.Fn.cost2
  | Ast.Foldr_compose (f, g) ->
      (* inherently sequential: all n elements on one processor *)
      flop (n * (f.Fn.cost2 + g.Fn.cost)) +. barrier procs
  | Ast.Rotate 0 -> 0.0
  | Ast.Rotate _ -> (2.0 *. msg (ceil_div n procs)) +. barrier procs
  | Ast.Send f | Ast.Fetch f ->
      ignore f;
      (* irregular movement: every processor exchanges its chunk *)
      (2.0 *. msg (ceil_div n procs)) +. barrier procs
  | Ast.Split _ | Ast.Combine ->
      (* regrouping traffic plus group management *)
      msg (ceil_div n procs) +. barrier procs
  | Ast.Map_nested body -> estimate ~procs ~n body +. barrier procs
  | Ast.Iter_for (k, body) -> float_of_int (max 0 k) *. estimate ~procs ~n body

let estimate_pipeline ~procs ~n e =
  if procs <= 0 then invalid_arg "Cost.estimate_pipeline: procs must be positive";
  estimate ~procs ~n e
