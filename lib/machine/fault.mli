(** Typed fault exceptions shared by every execution engine.

    [Timeout] is local and recoverable (one receive gave up waiting);
    [Deadlock] is global and fatal (the engine proved no progress is
    possible).  [Crashed] makes a rank fail-stop: it terminates that
    rank's program without failing the run, leaving recovery to the
    protocol (see {!Chaos} and the dynamic farm). *)

exception Timeout of string
(** Raised by [recv ~timeout] / [recv_any ~timeout] on any engine when
    the deadline elapses before a matching message is available.  Catch it
    at the receive site to retry or re-dispatch; the run continues. *)

exception Deadlock of string
(** Raised by a run on any engine when no progress is possible (every
    rank blocked with nothing in flight, or every possible sender of an
    awaited message finished), or when a rank finished with undelivered
    messages. *)

exception Crashed of int
(** [Crashed rank] fail-stops processor [rank]: its program ends at the
    raise point, it sends nothing further, and messages already addressed
    to it are discarded without tripping the undelivered-message check.
    Other processors are unaffected (a blocking receive from a crashed
    rank without a timeout will end in {!Deadlock}, or in [Crashed] on
    {!Procs}). *)

exception Unserializable of string
(** Raised at the [send] call site by engines whose ranks live in
    separate OS processes ({!Procs}) when the payload cannot cross the
    process boundary — a closure, or a custom block without [Marshal]
    serializers.  In-process engines (simulator, multicore) share a heap
    and never raise it; programs meant to be engine-portable must stick
    to marshalable payloads. *)
