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

type env = { procs : int; flat : bool }

let cm = Cost_model.ap1000

(* Per-element discount for stages the flat host tier can run: unboxed
   Bigarray loops with the operator matched outside the loop, versus the
   boxed skeletons' closure call + Value boxing per element.  Applied
   only to the flop term — barriers and combine-round messages are tier-
   independent.  Calibrated against the host/{boxed,flat}-scan bench
   pair; like the rest of the model it ranks plans, the simulator stays
   the ground truth. *)
let flat_factor = 0.25

let ceil_div a b = (a + b - 1) / b

let log2_ceil p =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) ((n + 1) / 2) in
  go 0 p

let flop k = Cost_model.flops cm k
let barrier env = Cost_model.barrier_time cm ~procs:env.procs

let msg words =
  Cost_model.transfer_time cm ~hops:1 ~bytes:(words * word_bytes)
  +. cm.Cost_model.send_overhead +. cm.Cost_model.recv_overhead

let elementwise env ~n fn_cost = flop (ceil_div n env.procs * fn_cost) +. barrier env

let reduce_rounds env fn_cost = float_of_int (log2_ceil env.procs) *. (msg 1 +. flop fn_cost)

let discount1 env f work = if env.flat && Flat_fns.fun1_of f <> None then work *. flat_factor else work
let discount2 env f work = if env.flat && Flat_fns.fun2_of f <> None then work *. flat_factor else work

let rec estimate env ~n (e : Ast.expr) : float =
  match e with
  | Ast.Id -> 0.0
  | Ast.Compose (f, g) -> estimate env ~n g +. estimate env ~n f
  | Ast.Map f ->
      discount1 env f (flop (ceil_div n env.procs * f.Fn.cost)) +. barrier env
  | Ast.Imap f -> elementwise env ~n f.Fn.cost2
  | Ast.Fold f ->
      discount2 env f (flop (ceil_div n env.procs * f.Fn.cost2))
      +. reduce_rounds env f.Fn.cost2
  | Ast.Scan f ->
      discount2 env f (flop (2 * ceil_div n env.procs * f.Fn.cost2))
      +. reduce_rounds env f.Fn.cost2
  | Ast.Foldr_compose (f, g) ->
      (* inherently sequential: all n elements on one processor *)
      flop (n * (f.Fn.cost2 + g.Fn.cost)) +. barrier env
  | Ast.Rotate 0 -> 0.0
  | Ast.Rotate _ -> (2.0 *. msg (ceil_div n env.procs)) +. barrier env
  | Ast.Send f | Ast.Fetch f ->
      ignore f;
      (* irregular movement: every processor exchanges its chunk *)
      (2.0 *. msg (ceil_div n env.procs)) +. barrier env
  | Ast.Split _ | Ast.Combine ->
      (* regrouping traffic plus group management *)
      msg (ceil_div n env.procs) +. barrier env
  | Ast.Map_nested body -> estimate env ~n body +. barrier env
  | Ast.Iter_for (k, body) -> float_of_int (max 0 k) *. estimate env ~n body

let estimate_pipeline ?(flat = false) ~procs ~n e =
  if procs <= 0 then invalid_arg "Cost.estimate_pipeline: procs must be positive";
  estimate { procs; flat } ~n e
