(** Event traces of simulator runs. *)

type kind =
  | Send of { dest : int; tag : int; bytes : int }
  | Recv of { src : int; tag : int; bytes : int }
  | Work of float
  | Note of string
  | Finish

type event = { time : float; proc : int; kind : kind }

type t

val create : unit -> t
(** A recording trace. *)

val disabled : unit -> t
(** A trace that drops everything (zero overhead in hot runs). *)

val record : t -> time:float -> proc:int -> kind -> unit

val events : t -> event list
(** All events sorted by (time, proc). *)

val length : t -> int
val clear : t -> unit

val notes : t -> (float * int * string) list
(** Just the [Note] events — what examples print for Figure-2 style output. *)

val to_chrome : ?pid:int -> t -> Obs.Json.t
(** Chrome [trace_event] JSON-array export, loadable in [chrome://tracing]
    and Perfetto. One thread per virtual processor; simulated seconds
    become microsecond timestamps. Work intervals are complete events
    (["ph":"X"] with a [dur]); sends, receives, notes and finishes are
    instants. *)

val write_chrome : ?pid:int -> string -> t -> unit
(** [write_chrome path t] writes {!to_chrome} to [path] (compact JSON). *)

val pp : Format.formatter -> t -> unit
val pp_event : Format.formatter -> event -> unit

val pp_gantt : ?width:int -> Format.formatter -> t -> unit
(** ASCII timeline, one row per processor ([=] work, [>] send, [<] recv,
    [#] finish). For small traces. *)
