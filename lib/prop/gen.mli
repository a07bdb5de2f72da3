(** Sized random generators over the splittable {!Runtime.Xoshiro} PRNG.

    A generator is a function of the current size budget and a PRNG state;
    determinism comes entirely from the seed, so any generated value can be
    replayed from [(seed, case index)] alone. No external dependencies. *)

type 'a t = size:int -> Runtime.Xoshiro.t -> 'a

val generate : ?size:int -> seed:int -> 'a t -> 'a
(** Run a generator once from an integer seed (default size 10). *)

(** {1 Combinators} *)

val return : 'a -> 'a t
val map : ('a -> 'b) -> 'a t -> 'b t
val map2 : ('a -> 'b -> 'c) -> 'a t -> 'b t -> 'c t
val bind : 'a t -> ('a -> 'b t) -> 'b t
val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t
val ( let+ ) : 'a t -> ('a -> 'b) -> 'b t
val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t

val sized : (int -> 'a t) -> 'a t
(** Read the current size budget. *)

(** {1 Primitives} *)

val bool : bool t

val int_range : int -> int -> int t
(** [int_range lo hi] is uniform on the inclusive range.
    @raise Invalid_argument if [hi < lo]. *)

val oneof : 'a t list -> 'a t
val oneof_val : 'a list -> 'a t

val frequency : (int * 'a t) list -> 'a t
(** Weighted choice; weights must be non-negative with a positive sum. *)

val list_size : int t -> 'a t -> 'a list t
val array_size : int t -> 'a t -> 'a array t
