(** Event traces of SPMD runs: a recorder wrapped around each rank's
    engine ({!run}), shaped like {!Chaos}. Each event is stamped with the
    engine's clock ([Engine.t.time]) just after the operation returns;
    sends and receives carry the bytes the simulator prices (the [Marshal]
    size of a boxed value, [Bigarray.Array1.size_in_bytes] of a slice).
    Wrapping adds no engine operation, so a traced simulator run keeps
    the makespan, clocks, messages and bytes of a bare one.

    A [Backend.sim ~trace] run applies {!run} to every rank. A [t] is a
    plain mutable list and must not be shared across domains: the ranks
    recording into one must run on one domain, as the simulator's do. A
    raw [recv_any] without [?tag] is recorded with tag [-1] ([Comm]
    always passes one). *)

type kind =
  | Send of { dest : int; tag : int; bytes : int }
  | Recv of { src : int; tag : int; bytes : int }
  | Work of float
  | Note of string
  | Finish

type event = { time : float; proc : int; kind : kind }

type t

val create : unit -> t
(** An empty trace. *)

val run : t -> (Engine.t -> 'a) -> Engine.t -> 'a
(** [run t program e] runs [program] on [e] wrapped to record into [t],
    under [e]'s rank: [Send] after each [send]/[send_slice], [Recv] after
    each [recv]/[recv_slice]/[recv_any], [Work d] after [work d], each
    [note], and [Finish] when [program] returns. A receive that raises
    {!Fault.Timeout} records [Note "recv timeout"]; a {!Fault.Crashed}
    leaving [program] records [Note "crashed"] then [Finish]. Both
    exceptions propagate.

    Apply [run t program] once per run and hand the result every rank's
    engine, as a [Backend.sim ~trace] run does: the ranks then share the
    run's sizes of boxed sends not yet received, per (source, dest, tag),
    and a receive records the size its matching send recorded instead of
    marshalling its payload again. A rank that has taken a message with an
    any-tag [recv_any], and any rank whose trace was applied on its own,
    prices its receives by marshalling them; the bytes are the same. *)

val events : t -> event list
(** All events sorted by (time, proc). *)

val notes : t -> (float * int * string) list
(** Just the [Note] events — what examples print for Figure-2 style output. *)

val to_chrome : t -> Obs.Json.t
(** Chrome [trace_event] JSON-array export, loadable in [chrome://tracing]
    and Perfetto. One thread per virtual processor, all of process 0; simulated seconds
    become microsecond timestamps. Work intervals are complete events
    (["ph":"X"] with a [dur]); sends, receives, notes and finishes are
    instants. *)

val write_chrome : string -> t -> unit
(** [write_chrome path t] writes {!to_chrome} to [path] (compact JSON). *)

val pp_gantt : ?width:int -> Format.formatter -> t -> unit
(** ASCII timeline, one row per processor ([=] work, [>] send, [<] recv,
    [#] finish). For small traces. *)
