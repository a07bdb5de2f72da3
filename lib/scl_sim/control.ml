(* Computational-skeleton templates on the simulated machine: the
   iterUntil control-flow skeleton at the SPMD level (iterFor is local
   control flow, [Scl.Computational.iter_for]).

   Convergence iteration is the common case (Jacobi, heat, any relaxation):
   every member steps its local state, the residuals are combined with a
   group allreduce, and everyone agrees to stop — the distributed meaning
   of the paper's iterUntil where the condition is itself a parallel
   reduction. *)

open Machine

type 'a convergence = { state : 'a; iterations : int; final_residual : float }

(* iterUntil with an allreduced residual: [step i state] returns the new
   local state and this member's local residual; iteration stops when the
   global max residual drops below [tol] or [max_iter] is reached.  All
   members return the same iteration count and residual. *)
let iter_until_conv (comm : Comm.t) ?(max_iter = max_int) ~tol ~(step : int -> 'a -> 'a * float)
    (init : 'a) : 'a convergence =
  if max_iter < 0 then invalid_arg "Control.iter_until_conv: negative max_iter";
  let state = ref init in
  let iterations = ref 0 in
  let residual = ref Float.infinity in
  let continue_ = ref (max_iter > 0) in
  while !continue_ do
    let next, local_res = step !iterations !state in
    state := next;
    incr iterations;
    residual := Comm.allreduce comm Float.max local_res;
    if !residual < tol || !iterations >= max_iter then continue_ := false
  done;
  { state = !state; iterations = !iterations; final_residual = !residual }
