(* Execution-engine vtable for SPMD programs.

   The paper's point (and Haskell#'s) is that the coordination layer should
   be retargetable: the same skeleton program must run on different
   execution media without touching the computation code.  [Comm] therefore
   writes its collectives once against this record of primitives, and each
   engine — the discrete-event simulator, the real-domain multicore fabric
   and the forked-process fabric — supplies its own implementation and
   exports the same boxed runner, [run_collect] (with [run_flat] for
   flat results on the real engines).

   A record of explicitly-polymorphic closures is used instead of a functor
   so that programs keep the plain value type [Comm.t -> 'a option] and a
   single compiled program body can be handed to any engine at runtime.

   Semantics every engine must provide:
   - [send] never waits for a matching receive; [recv] blocks until a
     message with the exact (src, tag) is available, FIFO per (source,
     tag) — MPI's non-overtaking rule.  On the procs engine a frame that
     does not fit in the socket buffer returns once the kernel holds it,
     servicing every inbound stream meanwhile, so a send waits at most
     until its destination next enters any engine call, finishes, or
     dies.
   - [recv_any] takes the oldest available message (any source) matching
     the optional tag; engines may resolve ties differently (the simulator
     is deterministic, real hardware is not).
   - [recv]/[recv_any] with [?timeout] raise [Fault.Timeout] once the
     deadline (engine-clock seconds from the call) elapses with no matching
     message — a local, recoverable condition, unlike the global
     [Fault.Deadlock].
   - [work d] charges [d] seconds of compute: simulated time on the
     simulator, a no-op on engines where computation costs real time.
   - [sleep d] idles for [d] engine-clock seconds: the rank's clock
     advances but no compute is charged (simulated work_times and the
     imbalance diagnostics are untouched); on real engines it is an actual
     sleep.  Long-lived programs (pacing an arrival process, a departed
     worker waiting to rejoin) need idling that every engine prices in
     its own clock — [work] cannot express it because it is free on
     real engines and counts as compute on the simulator.
   - [time ()] is the engine's own clock: simulated seconds on the
     simulator, wall-clock seconds since the run started on real engines.
     Nothing needs to know which: a fault injector (Chaos) stalls a
     straggler through [sleep], which every engine prices in its own
     clock.
   - [workspace kind n] returns a length-[n] flat buffer that stays
     valid until the run returns; what happens to it then is the
     runner's business (see [fresh] and [Workspace]).
   - [input kind] is the run's input at rank 0 of a [run_flat] given
     one, already laid out in a buffer of this rank's; [None] elsewhere. *)

(* The typed bulk tier: an unboxed slice (C-layout Bigarray window) of
   float64 or int elements, the two kinds the flat tier moves.
   [send_slice]/[recv_slice] carry exactly one message per call whatever
   the slice length — the engine-level contract message coalescing builds
   on.  The multicore engine passes the window zero-copy through shared
   memory (no serialisation); the simulator prices it as a single message
   of [size_in_bytes] (payload bytes, no marshalling framing) while
   keeping its value-semantics deep copy; the procs engine delivers a
   fresh copy.  Senders on a real engine must not mutate the window until
   a synchronising exchange with the receiver (the usual MPI buffer-reuse
   discipline; a collective suffices).  The receiver fixes the kind by
   its type, as with [recv]: both ends must agree. *)
type ('k, 'e) slice = ('k, 'e, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  rank : int;
  size : int;
  cost : Cost_model.t;
  send : 'a. dest:int -> tag:int -> 'a -> unit;
  recv : 'a. ?timeout:float -> src:int -> tag:int -> unit -> 'a;
  recv_any : 'a. ?timeout:float -> ?tag:int -> unit -> int * 'a;
  send_slice : 'k 'e. dest:int -> tag:int -> ('k, 'e) slice -> unit;
  recv_slice : 'k 'e. ?timeout:float -> src:int -> tag:int -> unit -> ('k, 'e) slice;
  work : float -> unit;
  sleep : float -> unit;
  time : unit -> float;
  note : string -> unit;
  workspace : 'k 'e. ('k, 'e) Bigarray.kind -> int -> ('k, 'e) slice;
  input : 'k 'e. ('k, 'e) Bigarray.kind -> ('k, 'e) slice option;
}

(* Every engine's default [workspace]: plain storage, collected when the
   program drops it.  The [run_flat] runners swap in a recycling one
   ([Workspace.wrap]). *)
let fresh kind n = Bigarray.Array1.create kind Bigarray.c_layout n

let no_input _ = None

(* The kinds are matched together, so a slice of the asked-for kind is
   returned as such, with no cast. *)
let input_of (type k e a b) (s : (k, e) slice) (kind : (a, b) Bigarray.kind) : (a, b) slice option =
  match (Bigarray.Array1.kind s, kind) with
  | Bigarray.Float64, Bigarray.Float64 -> Some s
  | Bigarray.Int, Bigarray.Int -> Some s
  | _ -> invalid_arg "Comm.input: the run's input is of another kind"

let with_input t s = { t with input = (fun kind -> input_of s kind) }

let work_flops t n = t.work (Cost_model.flops t.cost n)

(* The contract's checks, shared by every engine.  The comparisons inline
   at the call site and a message is formatted out of line, only when one
   raises: the multicore receive path runs these per message and must stay
   as cheap, and as allocation-free, as hand-written checks. *)

let[@inline never] out_of_range op r size =
  invalid_arg (Printf.sprintf "%s: rank %d out of range [0,%d)" op r size)

let[@inline never] rejected op what = invalid_arg (op ^ ": " ^ what)
let[@inline] check_src op ~size src = if src < 0 || src >= size then out_of_range op src size

let[@inline] check_dest op ~size ~self dest =
  if dest < 0 || dest >= size then out_of_range op dest size
  else if dest = self then rejected op "self-send is not supported (use a local value)"

let flat_kind (type k e) (kind : (k, e) Bigarray.kind) =
  match kind with Bigarray.Float64 -> true | Bigarray.Int -> true | _ -> false

let check_slice op s =
  if not (flat_kind (Bigarray.Array1.kind s)) then rejected op "slice kind must be float64 or int"

let check_kind op kind = if not (flat_kind kind) then rejected op "kind must be float64 or int"

(* A slice's static kind is the receiver's annotation, not a check; the
   loops that lay out or stream a flat result trust the run-time one. *)
let check_parts op kind parts =
  Array.iter
    (fun s -> if Bigarray.Array1.kind s <> kind then rejected op "a part is not of the requested kind")
    parts;
  parts

let check_procs op procs = if procs <= 0 then rejected op "procs must be positive"

(* [not (x >= 0.0)] is one comparison that NaN fails too; which of the
   two it was is told apart only on the way out. *)
let[@inline never] bad_number op what x =
  rejected op (if Float.is_nan x then what ^ " is NaN" else "negative " ^ what)

let[@inline] check_duration op d = if not (d >= 0.0) then bad_number op "duration" d

let[@inline] deadline op now = function
  | None -> Float.infinity
  | Some t -> if not (t >= 0.0) then bad_number op "timeout" t else now () +. t

(* --- tag layout ------------------------------------------------------------ *)

(* A collective's tag is [tag_space lor (seq lsl 4) lor opcode]: 24 bits
   of the communicator's sequence number and 4 of opcode, inside
   [tag_space, user_space).  A [Comm.send] without a tag uses the
   [opcode_sendrecv] tag at sequence 0; one with tag [u] uses [user_space
   lor u].  The communicator's context sits above all of them, from bit
   [context_shift] up (32 bits, so every tag stays a positive int); the
   world's is 0.  Anything else is an engine-level tag, used as it is. *)
let tag_space = 1 lsl 28
let user_space = 1 lsl 29
let max_seq = 1 lsl 24
let context_shift = 30
let max_context = 1 lsl 32

let opcode_barrier = 0
and opcode_bcast = 1
and opcode_reduce = 2
and opcode_gather = 3
and opcode_scatter = 4
and opcode_alltoall = 5
and opcode_scan = 6
and opcode_split = 7
and opcode_sendrecv = 8
and opcode_slice = 9

let opcode_names =
  [| "barrier"; "bcast"; "reduce"; "gather"; "scatter"; "alltoall"; "scan"; "split"; "p2p"; "slice" |]

let tag_name tag =
  let t = tag land ((1 lsl context_shift) - 1) in
  let at = if tag lsr context_shift = 0 then "" else Printf.sprintf "@c%d" (tag lsr context_shift) in
  if tag < 0 then string_of_int tag
  else if t >= user_space then Printf.sprintf "user:%d%s" (t - user_space) at
  else if t >= tag_space && t land 15 < Array.length opcode_names then
    let op = t land 15 in
    if op = opcode_sendrecv then opcode_names.(op) ^ at
    else Printf.sprintf "%s#%d%s" opcode_names.(op) ((t - tag_space) lsr 4) at
  else string_of_int tag

let describe_recv ~src ~tag ~any_tag =
  Printf.sprintf "recv(src=%s, tag=%s)"
    (if src < 0 then "any" else string_of_int src)
    (if any_tag then "any" else tag_name tag)

let timeout ~rank ~src ~tag ~any_tag ~deadline =
  Fault.Timeout
    (Printf.sprintf "p%d: %s deadline %.6f elapsed" rank (describe_recv ~src ~tag ~any_tag) deadline)

(* Undelivered messages after a clean finish are a protocol bug; callers
   skip crashed ranks, whose lost traffic is what fail-stop means. *)
let check_undelivered ~rank ~count ~src ~tag =
  if count > 0 then
    raise
      (Fault.Deadlock
         (Printf.sprintf "processor %d finished with %d undelivered message(s); first from p%d tag %s"
            rank count src (tag_name tag)))

let lowest_rank op results =
  match Array.find_map Fun.id results with
  | Some v -> v
  | None -> invalid_arg (op ^ ": no processor produced a result")
