(** Unboxed flat arrays: [Bigarray]-backed numeric storage for the fast
    payload tier.

    A [Flat.t] is a C-layout [Bigarray.Array1] window: storage lives
    outside the OCaml heap (never scanned by the GC), {!sub_view} is an
    O(1) copy-free window onto the same storage, and the machine layer can
    send a view between ranks as one bulk message without marshalling
    ([Engine.send_slice]).

    Views alias: mutating a view mutates the base. The skeleton-level
    discipline is the same as [Par_array]'s [unsafe_*] contract — once a
    view has been handed off (sent, or scattered as a sub-view), the
    holder of the base must not mutate the overlapping window until a
    synchronising exchange with the receiver.

    {!length}, {!get} and {!set} are primitives: each call site is
    compiled for the array type it sees, an unboxed load or store when
    that type is concrete ({!float1}, {!int1}) and a boxing C call when
    it is a type variable. Every array in a flat loop must therefore
    carry a concrete kind; a let-bound helper over flat arrays needs a
    type annotation, or let-generalisation compiles it generic. The
    conversions {!of_array} and {!to_array} dispatch once on the kind and
    run unboxed for [float64] and [int]; the other polymorphic helpers
    ({!init}, {!equal}) run one generic loop. {!init}'s closure also
    returns each float boxed: a hot loop fills a {!create}d array in
    place instead. *)

type ('a, 'b) t = ('a, 'b, Bigarray.c_layout) Bigarray.Array1.t

type float1 = (float, Bigarray.float64_elt) t
(** Unboxed 64-bit float vector — the numeric-workload payload type. *)

type int1 = (int, Bigarray.int_elt) t
(** Unboxed native-int vector. *)

val float64 : (float, Bigarray.float64_elt) Bigarray.kind
val int : (int, Bigarray.int_elt) Bigarray.kind

val create : ('a, 'b) Bigarray.kind -> int -> ('a, 'b) t
(** Uninitialised storage. @raise Invalid_argument on negative length. *)

val make : ('a, 'b) Bigarray.kind -> int -> 'a -> ('a, 'b) t
val init : ('a, 'b) Bigarray.kind -> int -> (int -> 'a) -> ('a, 'b) t
external length : ('a, 'b) t -> int = "%caml_ba_dim_1"
external get : ('a, 'b) t -> int -> 'a = "%caml_ba_ref_1"
(** Bounds-checked. @raise Invalid_argument out of range. *)

external set : ('a, 'b) t -> int -> 'a -> unit = "%caml_ba_set_1"
(** Bounds-checked. @raise Invalid_argument out of range. *)

val fill : ('a, 'b) t -> 'a -> unit
val kind : ('a, 'b) t -> ('a, 'b) Bigarray.kind

val sub_view : ('a, 'b) t -> pos:int -> len:int -> ('a, 'b) t
(** O(1) zero-copy window sharing storage with the source. *)

val blit : src:('a, 'b) t -> dst:('a, 'b) t -> unit
val copy : ('a, 'b) t -> ('a, 'b) t

val of_array : ?into:('a, 'b) t -> ('a, 'b) Bigarray.kind -> 'a array -> ('a, 'b) t
(** The elements in flat storage of [kind]. With [?into] (length at
    least the array's), they are copied into its prefix view of the
    array's length, which is the result; without it, into fresh storage.
    @raise Invalid_argument if [into] is shorter than the array. *)

val to_array : ('a, 'b) t -> 'a array

val concat : ('a, 'b) Bigarray.kind -> ('a, 'b) t array -> 'a array
(** [concat kind parts]: the parts' elements in order, in one fresh
    array ([Array.concat] of their {!to_array}s, without the copies). For
    [float64] and [int] it is {!lay_out} over the whole range, into
    {!create_array}; other kinds take a generic loop.
    @raise Invalid_argument if a part's run-time kind is not [kind]. *)

(** {2 Ranged copies}

    The loops behind {!of_array} and {!concat}, over one range, so that
    several domains can share one bulk copy by taking disjoint ranges
    ([Machine.Multicore.run_flat] does). Each matches on the kind once
    and runs unboxed for [float64] and [int]. *)

val copy_in : 'a array -> into:('a, 'b) t -> pos:int -> len:int -> unit
(** [copy_in src ~into ~pos ~len] stores [src.(pos)] ... [src.(pos + len - 1)]
    at the same positions of [into].
    @raise Invalid_argument if the range is not within both arrays. *)

val create_array : ('a, 'b) Bigarray.kind -> int -> 'a array
(** [create_array kind n]: a fresh [n]-element array for {!lay_out}:
    unset floats for [float64], zeros for [int].
    @raise Invalid_argument for any other kind. *)

val lay_out : ('a, 'b) Bigarray.kind -> ('a, 'b) t array -> 'a array -> pos:int -> len:int -> unit
(** [lay_out kind parts out ~pos ~len] stores the elements [pos] ...
    [pos + len - 1] of the parts' concatenation at the same positions of
    [out]. The parts' run-time kinds are trusted, not checked: each must
    be [kind] ({!concat} checks them).
    @raise Invalid_argument if [kind] is neither [float64] nor [int], or
    if the range is not within both the parts' total and [out]. *)

val of_float_array : float array -> float1
val to_float_array : float1 -> float array
val equal : ('a, 'b) t -> ('a, 'b) t -> bool

(** {1 Int tier}

    The sort-family local kernels ([Seq_kernels]'s SEQ_QUICKSORT /
    MIDVALUE / SPLIT / MERGE) over unboxed native-int storage. Outputs
    are value-identical to the boxed kernels (property-tested), but the
    local sort is a radix sort, with [Seq_kernels.quicksort] as its
    oracle, and [split_at] returns O(1) zero-copy sub-views where the
    boxed kernel copies. *)
module Int : sig
  type t = int1

  val sort : ?scratch:t -> t -> unit
  (** LSD radix sort on [x - min] read as an unsigned 63-bit value, so
      any int keys. The range [max - min]'s [b] significant bits are cut
      into [ceil (b / 11)] digits of equal width (at most 11 bits: three
      passes for 30-bit keys, six for the full int range), and each pass
      deals the keys stably by one digit, out of place, into the other of
      two buffers: the input and an n-slot scratch. One read of the input
      finds min and max, counts its ascents and descents and counts its
      low 11 bits, from which the first digit's counts follow; each pass
      counts the next digit as it deals, and a pass whose digit is the
      same for every key is skipped. An input with no descent is left as
      it is, and one with no ascent is reversed in place, without a pass.
      Inputs of at most 32 keys take an insertion sort. The sorted keys
      end in the input's own storage (after an odd number of passes, one
      blit copies them back from the scratch). [?scratch] (length at
      least the input's, sharing no storage with it; its contents are
      clobbered) saves the allocation, and lets a caller put the buffer
      to another use later ({!merge}'s [?into]). Without it, an input
      over 32 keys that is not ordered allocates one.
      @raise Invalid_argument if [scratch] is shorter than the input. *)

  val midvalue : t -> int option
  (** Middle element of an already-sorted chunk; [None] when empty. *)

  val split_at : int -> t -> t * t
  (** [split_at pivot a] on sorted [a]: ([<= pivot], [> pivot]) as
      zero-copy sub-views (binary search, O(log n), no copying). *)

  val merge : ?into:t -> t -> t -> t
  (** Merge two sorted chunks (equal to [Seq_kernels.merge]). With
      [?into] long enough to hold both, the result is the prefix view of
      [into] of their total length (no allocation); otherwise, and
      without [?into], it is fresh storage. [into] must share no storage
      with either input.

      Keys move in blocks of 8. When the next 8 keys of one input all
      precede the other's head (ties go to the first input), they are
      copied at once; otherwise 8 branch-free steps each store the
      smaller head, picked by a mask, so no branch hangs on a compare (one
      step at a time while an input holds fewer than 8 keys). When one
      input runs out, one blit copies the other's tail. Interleaved keys,
      where every compare is a coin flip, merge ~1.8× faster than with a
      branchy loop, and disjoint, run-structured, few-distinct and skewed
      ones mostly take the skips. Keys dealt strictly alternately are the
      slow case, ~3× the branchy loop's time: its branch predictor
      learns the alternation, while the steps here cost the same on any
      keys. *)

  val is_sorted : t -> bool
  val of_int_array : ?into:t -> int array -> t
  (** The keys in flat storage. With [?into] (length at least the
      array's), they are copied into its prefix view of the array's
      length, which is the result; without it, into fresh storage.
      @raise Invalid_argument if [into] is shorter than the array. *)

  val to_int_array : t -> int array
end
