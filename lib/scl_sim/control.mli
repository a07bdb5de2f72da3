(** Computational-skeleton templates at the SPMD level: the distributed
    reading of iterUntil ([Scl.Computational.iter_for] is iterFor). *)

open Machine

type 'a convergence = { state : 'a; iterations : int; final_residual : float }

val iter_until_conv :
  Comm.t -> ?max_iter:int -> tol:float -> step:(int -> 'a -> 'a * float) -> 'a -> 'a convergence
(** iterUntil with an allreduced stopping condition: [step i s] returns the
    new local state and the local residual; the group stops when the global
    max residual drops below [tol] (or at [max_iter]). Collective — every
    member must call it with the same control parameters; all members
    observe the same iteration count. *)
