(** Monotonic clock (nanoseconds since an arbitrary origin). *)

val now_ns : unit -> int64

val ns_since : int64 -> int
(** Nanoseconds elapsed since an earlier {!now_ns} reading. *)

val ns_to_s : int -> float
