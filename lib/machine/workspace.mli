(** Run-scoped flat buffers, recycled across runs.

    A {!lease} collects the buffers one run borrows through
    {!Comm.workspace}. They come from a process-wide free list, guarded
    by a mutex and kept per element kind ([float64], [int]): a request
    for [n] elements takes the smallest free buffer whose capacity is at
    least [n], as a view of length [n], or fresh storage when none fits.
    A buffer lent once stays with its lease until the run ends, so it is
    never lent twice in the same run (or to a concurrent run) — the
    property that keeps the multicore engine's by-reference sends safe.

    After a run returns normally, {!release} hands its buffers back: they
    {e replace} the free list, which therefore never holds more than one
    completed run lent (a run that lent nothing leaves it as it was).
    After a run that raised, the lease is simply dropped and its buffers
    go to the GC, since a rank may have left a view of one anywhere.

    Only [run_flat] recycles — [Spmd.run_flat] on [sim],
    [Multicore.run_flat], and each pooled rank of [Procs.run_flat] in
    its own process:
    the result is laid out in a fresh array (or streamed home) before the
    run returns, so nothing the caller holds aliases a lent buffer. *)

type lease
(** The buffers one run has borrowed. *)

val lease : unit -> lease
(** An empty lease, for one run. *)

val lend : lease -> ('k, 'e) Bigarray.kind -> int -> ('k, 'e) Engine.slice
(** [lend l kind n]: a length-[n] buffer, recorded in [l]. Its contents
    are unspecified. Any kind other than [float64] and [int] gets fresh
    storage that is never recycled. Safe to call from several domains at
    once. Counts [workspace.reused] when the buffer comes off the free
    list. *)

val count_lent : unit -> unit
(** Count one request in [workspace.lent]: {!Comm.workspace} counts each
    one it serves, whatever the engine lends. *)

val lend_input : lease -> ('k, 'e) Bigarray.kind -> int -> ('k, 'e) Engine.slice
(** {!lend}, counted in [workspace.lent] as a {!Comm.workspace} request
    is: the buffer a [run_flat] runner copies rank 0's input into before
    the run starts. *)

val counts : lease -> int * int
(** [(lent, fresh)]: the requests [l] has served, and how many of them
    came from fresh storage rather than the free list. *)

val wrap : lease -> Engine.t -> Engine.t
(** The engine with its [workspace] field lending from [l]. *)

val release : lease -> unit
(** Hand the lease's buffers back: they become the free list. Call it
    only once the run has returned normally; the lease is empty after. *)

val retained : unit -> int * int
(** The free list's size: (buffers, bytes of capacity). *)
