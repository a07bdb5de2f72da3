(** The storage-independent parts of the int LSD radix sorts, shared by
    {!Flat.Int.sort} (Bigarray storage) and [Seq_kernels.quicksort]
    ([int array]): the pass plan, the bucket starts, the digit-0 counts
    and the pass loop. Each storage supplies its own unchecked loops.

    Keys are ranked by [x - base], [base] their minimum, read as an
    unsigned 63-bit value, which orders every int ([min_int] and
    [max_int] included) without a special case. The digit of [x] at a
    pass is [((x - base) lsr shift) land mask]. *)

val insertion_cutoff : int
(** Inputs of at most this many keys (32) are insertion-sorted. *)

type plan = { passes : int; width : int; mask : int }
(** [passes] digits of [width] bits each; [mask = 2^width - 1]. *)

val plan : digit_bits:int -> int -> plan
(** [plan ~digit_bits range] cuts the [b] significant bits of [range]
    (= max - min, unsigned) into [ceil (b / digit_bits)] digits of
    equal width, at most [digit_bits]. A zero range (all keys equal)
    gets no pass. *)

type 's loops = {
  count : 's -> int -> int -> int -> int -> int array -> unit;
      (** [count src n base shift mask cnt] adds the digit counts of
          [src.(0..n-1)] to [cnt]. *)
  deal : 's -> 's -> int -> int -> int -> int -> int array -> unit;
      (** [deal src dst n base shift mask starts] moves each key of
          [src.(0..n-1)] to the next free slot of its bucket in [dst],
          advancing [starts]. *)
  deal_count : 's -> 's -> int -> int -> int -> int -> int array -> int -> int array -> unit;
      (** [deal_count src dst n base shift mask starts shift' cnt] is
          [deal], also counting the digit at [shift'] into [cnt]. *)
}
(** A storage's loops, each reading and writing it unchecked. *)

val passes : 's loops -> plan -> n:int -> base:int -> low:int array -> src:'s -> dst:'s -> spare:(unit -> 's) -> 's
(** Runs the plan's passes over [n] keys and returns the buffer that holds
    them sorted. [low] (a power-of-two number of slots, at least
    [mask + 1]) counts the keys' low bits [x land (Array.length low - 1)];
    the first digit's counts follow from it, and it is then reused as a
    count table. Each pass that moves keys deals them stably from one
    buffer into another: the first into [dst], the second into [spare ()]
    (asked for only then), and each later one into the buffer the pass
    before last read. [src] is only written when [spare ()] returns it.
    A pass whose digit is constant is skipped. *)
