(** The byte protocol of a rank-to-rank stream of the {!Procs} engine.

    Pure: no [Unix], no [select], no I/O. One {!t} is one rank's end of
    the stream pair it shares with one peer, and owns every decision
    about what bytes go on that stream and what the bytes that arrive
    mean. The engine moves the bytes: it asks {!next} what to write and
    reports with {!advance} how many the socket took, and asks
    {!read_into} where the next read goes and reports with {!filled} how
    many arrived. The same functions run in the ranks and in the test
    tree's exhaustive-schedule explorer, so what the explorer checks is
    what runs.

    {2 Frames}

    All integers little-endian:

{v
     +------+----------------+----------------+----------------------+
     | kind | tag  (int64)   | len  (int64)   | payload              |
     | 1 B  | 8 B            | 8 B            | see below            |
     +------+----------------+----------------+----------------------+

     kind 0  marshal       len = payload bytes; payload = [Marshal] image
     kind 1  goodbye       len = 0; clean-finish marker, no payload
     kind 2  arena floats  len = element count; payload = two int64s: the
                           block's arena offset and its span (elements)
     kind 3  arena ints    as kind 2, int elements
     kind 4  credit        tag = the run's number; len = elements of the
                           reader's own ring toward the writer that are
                           free again; no payload
v}

    The source rank is implicit (one stream per peer), so a frame is
    exactly one message and the per-(src, tag) FIFO contract falls out of
    stream order: same-channel messages share a stream and a parse order,
    arena frames included, since only their payload lives elsewhere. A
    slice that does not take the arena is a [Marshal] frame like any
    boxed value, so one bulk send stays one frame either way.

    Each frame is copied once per hop. Writing: a payload of up to one
    {!chunk} goes out together with its header; a larger one is written
    after its header as it stands, never copied into an assembled frame.
    Reading: reads land in the peer's stream tail, which holds at most a
    header and one chunk, and whole frames are parsed out of it. Once a
    header announces a payload larger than a chunk, the payload is
    allocated at its final size, takes what the tail holds of it, and
    the rest is read straight into it.

    {2 Credits}

    The arena is one shared mapping carved into one {!ring} per directed
    channel. A slice of at least a chunk is blitted into the sender's
    ring toward its destination and announced by an arena frame; the
    receiver copies it out as soon as {!filled} hands it the frame, and
    from that moment owes the sender a credit for the block's span. Owed
    credit becomes a credit frame only between whole frames: never
    inside a part-written frame, and ahead of the next frame queued. A
    credit is applied to the ring only in the run it names: a credit of
    another run would free space this run has not used, and let the next
    block overwrite one its reader has not copied out yet, so it raises.
    A slice that finds its ring full takes the stream as a [Marshal]
    frame, so no send ever waits on arena space.

    {2 Goodbyes and runs}

    A stream outlives a run. A rank that finishes cleanly says
    {!goodbye}: every credit it owes goes out ahead of the goodbye, and
    nothing follows it in that run. The rank then reads each peer's
    stream up to that peer's goodbye, so the next run finds every stream
    empty and no frame crosses from one run into the next. *)

val header_len : int
(** 17: kind, tag and len. *)

val chunk : int
(** 64 KiB, the engine's unit of the stream: a larger payload skips the
    stream tail both ways, and a slice this large takes the arena when
    its ring has room. *)

(** {2 Rings} *)

type ring = { r_base : int; r_cap : int; mutable r_head : int; mutable r_tail : int }
(** A sender's ring toward one destination: [r_cap] elements from arena
    offset [r_base]. [r_head] and [r_tail] count elements ever reserved
    and ever credited back, so [r_head - r_tail] is in flight. *)

val ring_of : elems:int -> procs:int -> src:int -> dst:int -> ring option
(** Rank [src]'s ring toward [dst] in a run of [procs] over an arena of
    [elems] elements: the arena in [procs * (procs - 1)] equal parts,
    none when a part would be smaller than a chunk. *)

val reserve : ring -> int -> (int * int) option
(** Room for [n] contiguous elements: [Some (offset, span)], or [None].
    A block that would straddle the ring's end starts over at its front,
    and the skipped tail is charged to it: its span, returned by its
    credit. *)

(** {2 Streams} *)

type t
(** One rank's end of the stream pair with one peer. *)

val create : chunk:int -> self:int -> peer:int -> t
(** A stream pair between ranks [self] and [peer], both ways empty.
    [chunk] is {!chunk} in the engine; the explorer shrinks it so that a
    few bytes exercise the large-payload path. At least 16. *)

val start : t -> run:int -> ring:ring option -> unit
(** Begin run number [run], sending arena blocks through [ring]. The
    outbound side starts empty and open; whatever the inbound tail still
    holds stays there and is parsed in this run. *)

(** {3 Outbound} *)

val send : t -> tag:int -> bytes -> unit
(** Queue a [Marshal] frame whole. Raises [Invalid_argument] after
    {!goodbye}. *)

val reserve_slice : t -> int -> (int * int) option
(** Where in the arena an [n]-element slice goes: {!reserve} on this
    stream's ring, or [None] when the slice is smaller than a chunk, the
    run has no ring, or the ring is full (the slice then takes
    {!send}). *)

type slice_kind = Floats | Ints

val send_slice : t -> kind:slice_kind -> tag:int -> len:int -> off:int -> span:int -> unit
(** Queue the arena frame for a block {!reserve_slice} placed and the
    caller has already blitted. Raises [Invalid_argument] after
    {!goodbye}. *)

val goodbye : t -> unit
(** Queue every credit owed, then the goodbye, and close the outbound
    side: nothing is queued after it, and credit owed later is never
    written. Raises [Invalid_argument] if already said. *)

val next : t -> (bytes * int * int) option
(** The bytes to write next, as [(buffer, offset, length)], or [None]
    when nothing is queued or owed. At a frame boundary, owed credit
    becomes a credit frame first. *)

val advance : t -> int -> unit
(** The socket took this many of the bytes {!next} offered. *)

val backlog : t -> bool
(** A queued frame other than a credit is not yet wholly written: a
    blocking send waits on this. *)

(** {3 Inbound} *)

type event =
  | Message of { tag : int; payload : bytes }  (** a [Marshal] image *)
  | Slice of { kind : slice_kind; tag : int; off : int; len : int; span : int }
      (** an arena block of [len] elements at [off]: copy it out before
          writing again, since its credit is owed from now *)

val read_into : t -> bytes * int * int
(** Where the next read goes, as [(buffer, offset, length)]: the stream
    tail, or the payload of a large frame in progress. [length] is
    never 0. *)

val filled : t -> int -> event list
(** This many bytes arrived where {!read_into} said: the events of the
    frames they completed, in stream order. Credits are applied to the
    ring and the goodbye to {!finished}; neither is an event. Raises
    [Failure] on a credit of another run, a frame after the peer's
    goodbye, or an unknown kind. *)

val finished : t -> bool
(** The peer's goodbye has been parsed in this run. *)
