(** Reusable sense-reversing barrier for a fixed number of parties. *)

type t

val create : int -> t
(** [create n] makes a barrier for [n] parties.
    @raise Invalid_argument if [n <= 0]. *)

val await : t -> unit
(** Block until all [n] parties have called {!await}; then all are released
    and the barrier is ready for the next phase. *)

val release : t -> unit
(** Open the barrier for good: every party blocked in {!await} returns, and
    every later {!await} returns at once.  For abandoning a phase that some
    party will never reach (e.g. its domain failed to spawn). *)

val parties : t -> int
