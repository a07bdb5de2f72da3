(** Minimal JSON tree: writer, parser, and accessors.

    Self-contained (the build image ships no JSON library). Non-finite
    floats are emitted as [null]; finite floats are written in the shortest
    decimal form that round-trips exactly. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** Serialise. [~pretty:true] indents by two spaces (stable across runs, so
    pretty artifacts diff cleanly in git). *)

val to_file : ?pretty:bool -> string -> t -> unit
(** [to_file path v] writes [v] to [path] (pretty by default). *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document; the error carries a byte offset. *)

val of_file : string -> (t, string) result

(** {1 Accessors} *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on other constructors. *)

val to_string_opt : t -> string option
val to_bool_opt : t -> bool option
val to_int_opt : t -> int option

val to_float_opt : t -> float option
(** Accepts both [Float] and [Int]. *)

val mem_string : string -> t -> string option
val mem_int : string -> t -> int option
val mem_float : string -> t -> float option
