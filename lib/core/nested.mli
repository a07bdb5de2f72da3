(** Segmented operations over nested ParArrays — the NESL-style "segmented
    instructions" the paper's flattening rule appeals to: a nested scan
    becomes ONE flat scan with the flag-reset operator, so flat
    data-parallel machinery runs nested operations unchanged. The
    segmented scan of [Transform.Spmd_exec] is that flat scan. *)

val segmented_op : ('a -> 'a -> 'a) -> bool * 'a -> bool * 'a -> bool * 'a
(** The flag-reset lift: associative whenever the base operator is. *)
