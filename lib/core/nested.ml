(* Segmented operations over nested ParArrays — the machinery behind the
   paper's flattening rule: "the segmented global function sgf provides a
   similar functionality to the Segmented Instructions used in the NESL
   language implementation" (Section 4).

   A nested ParArray (an array of segments) is flattened to a flat array
   paired with segment-start flags; the segmented scan is then ONE flat
   scan with the flag-reset operator

     (fx, x) ⊕ (fy, y) = (fx || fy, if fy then y else op x y)

   which is associative whenever [op] is — so a flat data-parallel scan
   runs nested scans unchanged.  This is the executable content of turning
   nested data parallelism into flat data parallelism; [Transform.Spmd_exec]
   runs its segmented scan through it. *)

(* The flag-reset lift of an associative operator. *)
let segmented_op op (fx, x) (fy, y) = (fx || fy, if fy then y else op x y)
