(** Line of sight — the classic scan application: point i of a terrain
    profile is visible from the origin iff its viewing angle exceeds the
    maximum angle of everything before it — one exclusive max-scan. *)

open Machine

val visible_seq : ?observer_height:float -> float array -> bool array
(** Sequential reference. Point 0 (the observer) is always visible. *)

val visible_scl : ?exec:Scl.Exec.t -> ?observer_height:float -> float array -> bool array
(** Host-SCL rendering: imap angles, exclusive max-scan, zip compare. *)

val visible :
  's Backend.t -> ?observer_height:float -> procs:int -> float array -> bool array * 's
(** SPMD rendering on the chosen engine (carry-chain exclusive scan along
    block order). Identical output on every engine. *)

val angle : observer_height:float -> int -> float -> float
