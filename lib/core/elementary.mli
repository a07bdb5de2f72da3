(** Elementary skeletons (paper Section 2.2): data-parallel map / imap /
    fold / scan over ParArrays.

    [fold] and [scan] require an associative operator — with a
    non-associative one "the result is undefined" in the paper; here the
    backends combine in index order, so associativity is the exact
    requirement. *)

val map : ?exec:Exec.t -> ('a -> 'b) -> 'a Par_array.t -> 'b Par_array.t
(** [map f <x0..xn> = <f x0 .. f xn>] — broadcast a task to all elements. *)

val imap : ?exec:Exec.t -> (int -> 'a -> 'b) -> 'a Par_array.t -> 'b Par_array.t
(** [imap f <x0..xn> = <f 0 x0 .. f n xn>] — map with the element index. *)

val fold : ?exec:Exec.t -> ('a -> 'a -> 'a) -> 'a Par_array.t -> 'a
(** Tree reduction. @raise Invalid_argument on empty input. *)

val scan : ?exec:Exec.t -> ('a -> 'a -> 'a) -> 'a Par_array.t -> 'a Par_array.t
(** Inclusive parallel prefix: [<x0, x0+x1, ..., x0+...+xn>]. *)

val map_fold : ?exec:Exec.t -> ('b -> 'b -> 'b) -> ('a -> 'b) -> 'a Par_array.t -> 'b
(** [map_fold op f pa = fold op (map f pa)] in a single pass with no
    intermediate ParArray — the executable form of the map/fold fusion
    rule. @raise Invalid_argument on empty input. *)

val map_scan :
  ?exec:Exec.t -> ('b -> 'b -> 'b) -> ('a -> 'b) -> 'a Par_array.t -> 'b Par_array.t
(** [map_scan op f pa = scan op (map f pa)] in a single pass; each element
    is mapped exactly once. *)

val map_compose : ?exec:Exec.t -> ('b -> 'c) -> ('a -> 'b) -> 'a Par_array.t -> 'c Par_array.t
(** [map_compose f g pa = map f (map g pa)] in one traversal — the
    executable form of the map/map fusion rule. *)

val zip_with :
  ?exec:Exec.t -> ('a -> 'b -> 'c) -> 'a Par_array.t -> 'b Par_array.t -> 'c Par_array.t
(** Pointwise combination of two aligned ParArrays. *)

val fold_with_unit : ?exec:Exec.t -> ('a -> 'a -> 'a) -> 'a -> 'a Par_array.t -> 'a
(** Like {!fold} but total: returns the unit on empty input. *)

val scan_exclusive : ?exec:Exec.t -> ('a -> 'a -> 'a) -> 'a -> 'a Par_array.t -> 'a Par_array.t
(** Exclusive prefix seeded with the unit. *)
