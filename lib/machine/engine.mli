(** Execution-engine vtable: the primitives an SPMD program (and the
    [Comm] collectives) may use, abstracted over the execution medium.

    Three instances exist: [Sim]'s (discrete-event simulator, [work]
    charges simulated time), [Multicore]'s (OCaml domains, zero-copy
    shared memory) and [Procs]' (forked OS processes over sockets). Each
    engine exports the same two runners over these programs, [run_each]
    and [run_collect] ([Multicore] and [Procs] add [run_flat]); programs written against
    [Comm.t] run unchanged on all three. *)

type ('k, 'e) slice = ('k, 'e, Bigarray.c_layout) Bigarray.Array1.t
(** The typed bulk-payload tier: an unboxed window (C-layout
    [Bigarray.Array1]) of [float64] or [int] elements. One
    {!t.send_slice} is always exactly one message, whatever the length —
    the contract message coalescing builds on. *)

type t = {
  rank : int;  (** this virtual processor's machine-global rank *)
  size : int;  (** total number of virtual processors *)
  cost : Cost_model.t;  (** machine calibration (meaningful on the simulator) *)
  topology : Topology.t;
  send : 'a. dest:int -> tag:int -> 'a -> unit;
      (** Tagged send; never waits for a matching receive. On the procs
          engine a frame larger than the socket buffer returns once the
          kernel holds it, servicing every inbound stream meanwhile, so it
          waits at most until [dest] next enters any engine call, finishes,
          or dies. *)
  recv : 'a. ?timeout:float -> src:int -> tag:int -> unit -> 'a;
      (** Blocking receive; FIFO per (source, tag). The result type is fixed
          by the caller: sender and receiver must agree (the invariant all
          skeleton templates maintain). With [?timeout] (engine-clock
          seconds), raises {!Fault.Timeout} if no matching message is
          available in time. *)
  recv_any : 'a. ?timeout:float -> ?tag:int -> unit -> int * 'a;
      (** Blocking receive from any source; returns (source rank, value).
          Deterministic only on the simulator. [?timeout] as in [recv]. *)
  send_slice : 'k 'e. dest:int -> tag:int -> ('k, 'e) slice -> unit;
      (** Typed bulk send: one message carrying an unboxed [float64] or
          [int] window (any other kind raises [Invalid_argument] on every
          engine). The multicore engine passes the window zero-copy
          through shared memory (no serialisation) — the sender must not
          mutate it until a synchronising exchange with the receiver (a
          collective suffices). The simulator prices it as a single
          message of [Bigarray.Array1.size_in_bytes] payload bytes (no
          marshalling framing) and delivers a deep copy taken at the send.
          The procs engine delivers a fresh copy too: a window of at least
          64 KiB goes through a shared-memory arena when its channel's
          ring has room (one copy in at the send, one copy out when the
          receiver reads the frame), anything else as a [Marshal] frame
          on the socket. *)
  recv_slice : 'k 'e. ?timeout:float -> src:int -> tag:int -> unit -> ('k, 'e) slice;
      (** Receive a bulk slice; FIFO per (source, tag) with ordinary sends
          on the same channel. The kind is fixed by the caller's type and
          must be the sender's; annotate it where the result feeds
          [Scl.Flat.get], or the access compiles generic. On the multicore
          engine the result aliases the sender's storage — treat it as
          read-only; on the simulator and procs it is the receiver's own
          copy. *)
  work : float -> unit;  (** Charge compute seconds (no-op on real engines). *)
  sleep : float -> unit;
      (** Idle for [d] engine-clock seconds: the clock advances but no
          compute is charged — simulated [work_times] (and the imbalance
          diagnostics built on them) are untouched; a real sleep on the
          multicore engine. For pacing arrival processes and membership
          away-time in long-lived programs. *)
  time : unit -> float;  (** Engine clock: simulated or wall seconds. *)
  note : string -> unit;  (** Trace annotation (no-op on real engines). *)
  workspace : 'k 'e. ('k, 'e) Bigarray.kind -> int -> ('k, 'e) slice;
      (** [workspace kind n]: a length-[n] flat buffer (contents
          unspecified) for this rank's use, valid until the run returns;
          reach it through {!Comm.workspace}. Every engine builds its
          ranks with {!fresh}, plain storage collected like any other
          value; the [run_flat] runners swap in {!Workspace.wrap},
          which lends buffers recycled from earlier runs and takes them
          back when the run returns. A wrapper built with
          [{ e with … }] passes it through untouched. *)
  input : 'k 'e. ('k, 'e) Bigarray.kind -> ('k, 'e) slice option;
      (** [input kind]: the input array handed to a [run_flat] runner
          ([Scl_sim.Spmd.run_flat ~input], [Multicore.run_flat ~input],
          [Procs.run_flat ~input]), as a buffer lent from the run's
          workspace: [Some] at rank 0 of such a run, [None] on every
          other rank and in every other run ({!no_input}). Reach it
          through {!Comm.input}.
          @raise Invalid_argument if [kind] is not the input's kind. *)
}

val fresh : ('k, 'e) Bigarray.kind -> int -> ('k, 'e) slice
(** Uninitialised storage of [n] elements ([Bigarray.Array1.create]):
    every engine's default {!t.workspace}. *)

val no_input : ('k, 'e) Bigarray.kind -> ('k, 'e) slice option
(** Always [None]: every engine's default {!t.input}. *)

val with_input : t -> ('k, 'e) slice -> t
(** The engine with its [input] field returning the slice (for its own
    kind; any other kind raises [Invalid_argument]). *)

val work_flops : t -> int -> unit
(** [work_flops t n] charges [n] floating-point operations via the engine's
    cost model. *)

(** {1 The contract's checks}

    Shared by every engine. [op] names the operation in the message
    (["Multicore.send"], ["Procs.recv_slice"], …); nothing allocates unless
    it raises. *)

val check_src : string -> size:int -> int -> unit
(** @raise Invalid_argument ["<op>: rank <r> out of range \[0,<size>)"]. *)

val check_dest : string -> size:int -> self:int -> int -> unit
(** {!check_src}, and
    @raise Invalid_argument ["<op>: self-send is not supported (use a local value)"]. *)

val check_slice : string -> ('k, 'e) slice -> unit
(** @raise Invalid_argument ["<op>: slice kind must be float64 or int"]. *)

val check_kind : string -> ('k, 'e) Bigarray.kind -> unit
(** A flat result's element kind.
    @raise Invalid_argument ["<op>: kind must be float64 or int"]. *)

val check_parts : string -> ('k, 'e) Bigarray.kind -> ('k, 'e) slice array -> ('k, 'e) slice array
(** A flat result's parts, returned as they are, in the rank that
    produced them: a slice received at another annotation than its
    sender's still has its own run-time kind.
    @raise Invalid_argument ["<op>: a part is not of the requested kind"]. *)

val check_procs : string -> int -> unit
(** A runner's processor count.
    @raise Invalid_argument ["<op>: procs must be positive"] if it is [<= 0]. *)

val check_duration : string -> float -> unit
(** @raise Invalid_argument ["<op>: negative duration"], or
    ["<op>: duration is NaN"]. *)

val deadline : string -> (unit -> float) -> float option -> float
(** [deadline op now timeout]: [now () +. t] for [Some t], [infinity] for [None].
    @raise Invalid_argument ["<op>: negative timeout"], or
    ["<op>: timeout is NaN"]. *)

(** {1 Tag layout}

    [Comm] derives every message tag from this layout. A collective's
    tag is [tag_space lor (seq lsl 4) lor opcode], [seq] being the
    communicator's sequence number (below [max_seq]); an untagged
    [Comm.send] uses the [opcode_sendrecv] tag at sequence 0, and one with
    tag [u] uses [user_space lor u]. Other tags are the engine level's. *)

val tag_space : int
val user_space : int
val max_seq : int
val opcode_barrier : int
val opcode_bcast : int
val opcode_reduce : int
val opcode_gather : int
val opcode_scatter : int
val opcode_alltoall : int
val opcode_scan : int
val opcode_split : int
val opcode_sendrecv : int
val opcode_slice : int

val tag_name : int -> string
(** A tag as fault reports print it: ["<op>#<seq>"] for a collective's
    (["bcast#1"]), ["p2p"] for an untagged [Comm.send]'s, ["user:<u>"] for
    a [Comm.send ~tag:u]'s, the number for any other. Allocates: call it
    only on the way to an error. *)

val timeout : rank:int -> src:int -> tag:int option -> deadline:float -> exn
(** The {!Fault.Timeout} of [rank]'s receive from [src] ([-1]: any) on
    [tag] (named by {!tag_name}). *)

val check_undelivered : rank:int -> count:int -> src:int -> tag:int -> unit
(** Finish check of a rank left with [count] unreceived messages, the
    oldest from [src] on [tag] (named by {!tag_name}).
    @raise Fault.Deadlock if [count > 0]. *)

val lowest_rank : string -> 'a option array -> 'a
(** The lowest rank's value: every engine's [run_collect] result.
    @raise Invalid_argument ["<op>: no processor produced a result"]. *)
