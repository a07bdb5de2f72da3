(* Unboxed flat arrays: the Bigarray-backed counterpart of [Par_array] for
   numeric payloads.

   A [Flat.t] is a C-layout [Bigarray.Array1] window.  Bigarray storage
   lives outside the OCaml heap, so a flat value is never scanned by the
   GC, [sub_view] is an O(1) header allocation sharing the same storage
   (the configuration-skeleton fast path, like [Par_array.sub_view]), and
   the machine layer can move a view between ranks as one bulk message
   without marshalling ([Engine.send_slice]). *)

type ('a, 'b) t = ('a, 'b, Bigarray.c_layout) Bigarray.Array1.t
type float1 = (float, Bigarray.float64_elt) t
type int1 = (int, Bigarray.int_elt) t

let float64 = Bigarray.float64
let int = Bigarray.int

let create (kind : ('a, 'b) Bigarray.kind) n : ('a, 'b) t =
  if n < 0 then invalid_arg "Flat.create: negative length";
  Bigarray.Array1.create kind Bigarray.c_layout n

let make kind n v =
  let a = create kind n in
  Bigarray.Array1.fill a v;
  a

(* Primitives, not functions: each call site is compiled for the kind its
   own type names (an unboxed load or store for [float1]/[int1]); a call
   whose array type is still a variable falls back to the boxing C call. *)
external length : ('a, 'b) t -> int = "%caml_ba_dim_1"
external get : ('a, 'b) t -> int -> 'a = "%caml_ba_ref_1"
external set : ('a, 'b) t -> int -> 'a -> unit = "%caml_ba_set_1"

let fill (a : ('a, 'b) t) v = Bigarray.Array1.fill a v
let kind (a : ('a, 'b) t) = Bigarray.Array1.kind a

(* O(1) zero-copy window sharing storage with the source — mutating either
   aliases the other, the same no-mutation-after-handoff discipline as
   [Par_array.unsafe_of_array] and the engines' zero-copy sends. *)
let sub_view (a : ('a, 'b) t) ~pos ~len : ('a, 'b) t = Bigarray.Array1.sub a pos len

let blit ~(src : ('a, 'b) t) ~(dst : ('a, 'b) t) = Bigarray.Array1.blit src dst

let copy (a : ('a, 'b) t) : ('a, 'b) t =
  let c = create (kind a) (length a) in
  Bigarray.Array1.blit a c;
  c

let init kind n f =
  let a = create kind n in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set a i (f i)
  done;
  a

(* The conversions are polymorphic in the element kind, so each matches
   once on the [Bigarray.kind] GADT: inside the [Float64] and [Int] branches
   the types are concrete and the copy loop compiles unboxed (the solve and
   sort workloads convert every job through them); every other kind takes
   the generic loop.  The branches are textually identical on purpose — the
   type, not the code, differs. *)
let copy_in (type a b) op ?into (kind : (a, b) Bigarray.kind) (src : a array) : (a, b) t =
  let n = Array.length src in
  let a =
    match into with
    | None -> create kind n
    | Some dst ->
        if length dst < n then invalid_arg (op ^ ": into is shorter than the array");
        sub_view dst ~pos:0 ~len:n
  in
  (match kind with
  | Bigarray.Float64 ->
      for i = 0 to n - 1 do
        Bigarray.Array1.unsafe_set a i (Array.unsafe_get src i)
      done
  | Bigarray.Int ->
      for i = 0 to n - 1 do
        Bigarray.Array1.unsafe_set a i (Array.unsafe_get src i)
      done
  | _ ->
      for i = 0 to n - 1 do
        Bigarray.Array1.unsafe_set a i (Array.unsafe_get src i)
      done);
  a

let of_array ?into kind src = copy_in "Flat.of_array" ?into kind src

let to_array (type a b) (a : (a, b) t) : a array =
  let n = length a in
  if n = 0 then [||]
  else begin
    let out = Array.make n (Bigarray.Array1.unsafe_get a 0) in
    (match kind a with
    | Bigarray.Float64 ->
        for i = 1 to n - 1 do
          Array.unsafe_set out i (Bigarray.Array1.unsafe_get a i)
        done
    | Bigarray.Int ->
        for i = 1 to n - 1 do
          Array.unsafe_set out i (Bigarray.Array1.unsafe_get a i)
        done
    | _ ->
        for i = 1 to n - 1 do
          Array.unsafe_set out i (Bigarray.Array1.unsafe_get a i)
        done);
    out
  end

(* Parts laid out in order in one fresh array: one match on the kind, so
   the copy loops run unboxed for [float64] and [int].  A part's kind is
   checked, not trusted: a slice received at the wrong annotation carries
   another one, and the unboxed loops would misread it. *)
let concat (type a b) (kind : (a, b) Bigarray.kind) (parts : (a, b) t array) : a array =
  Array.iter
    (fun p ->
      if Bigarray.Array1.kind p <> kind then
        invalid_arg "Flat.concat: a part is not of the requested kind")
    parts;
  let total = Array.fold_left (fun n p -> n + length p) 0 parts in
  (* [copy out p pos] stores part [p] at [out.(pos)] onwards *)
  let lay_out (out : a array) copy =
    ignore (Array.fold_left (fun pos p -> copy out p pos; pos + length p) 0 parts);
    out
  in
  match kind with
  | Bigarray.Float64 ->
      lay_out (Array.create_float total) (fun out (p : float1) pos ->
          for i = 0 to length p - 1 do
            Array.unsafe_set out (pos + i) (Bigarray.Array1.unsafe_get p i)
          done)
  | Bigarray.Int ->
      lay_out (Array.make total 0) (fun out (p : int1) pos ->
          for i = 0 to length p - 1 do
            Array.unsafe_set out (pos + i) (Bigarray.Array1.unsafe_get p i)
          done)
  | _ -> Array.concat (Array.to_list (Array.map to_array parts))

let of_float_array (src : float array) : float1 = of_array float64 src
let to_float_array (a : float1) : float array = to_array a

let equal (a : ('a, 'b) t) (b : ('a, 'b) t) =
  length a = length b
  &&
  let n = length a in
  let rec equal_from i =
    i >= n || (Bigarray.Array1.unsafe_get a i = Bigarray.Array1.unsafe_get b i && equal_from (i + 1))
  in
  equal_from 0

(* --- int flat tier -------------------------------------------------------- *)

(* The sort-family local kernels over unboxed native-int storage: the
   [Seq_kernels] procedures (SEQ_QUICKSORT / MIDVALUE / SPLIT / MERGE)
   re-expressed on [int1] so the hyperquicksort local phases stop boxing
   keys.  Outputs are value-identical to the boxed kernels (pinned by
   property tests), though two of them improve on the boxed rendering:
   the local sort is a radix sort, not a quicksort (SCL only calls it,
   so any sequential sort will do), and [split_at]'s two halves are O(1)
   sub-views of the input, not [Array.sub] copies. *)
module Int = struct
  type t = int1

  let insertion_cutoff = 32

  (* Digits are at most [digit_bits] wide: a count table of [radix]
     slots (16 KB) stays in L1, and the benchmark's 30-bit keys take
     three passes. *)
  let digit_bits = 11
  let radix = 1 lsl digit_bits

  let insertion_sort (a : t) n =
    for i = 1 to n - 1 do
      let x = Bigarray.Array1.unsafe_get a i in
      let j = ref (i - 1) in
      while !j >= 0 && Bigarray.Array1.unsafe_get a !j > x do
        Bigarray.Array1.unsafe_set a (!j + 1) (Bigarray.Array1.unsafe_get a !j);
        decr j
      done;
      Bigarray.Array1.unsafe_set a (!j + 1) x
    done

  let reverse (a : t) n =
    for i = 0 to (n / 2) - 1 do
      let x = Bigarray.Array1.unsafe_get a i in
      Bigarray.Array1.unsafe_set a i (Bigarray.Array1.unsafe_get a (n - 1 - i));
      Bigarray.Array1.unsafe_set a (n - 1 - i) x
    done

  (* The digit of a key [x] at a pass is [((x - base) lsr shift) land
     mask].  The loops below make no call, so their operands stay in
     registers. *)

  (* [cnt] must hold zeros *)
  let count (src : t) n base shift mask (cnt : int array) =
    for i = 0 to n - 1 do
      let d = ((Bigarray.Array1.unsafe_get src i - base) lsr shift) land mask in
      Array.unsafe_set cnt d (Array.unsafe_get cnt d + 1)
    done

  (* Turns [cnt]'s counts into each bucket's first slot; false, with the
     counts unchanged, when one bucket holds all [n] keys (the digit is
     constant, so its pass would move nothing). *)
  let bucket_starts (cnt : int array) mask n =
    let constant = ref false in
    for d = 0 to mask do
      if Array.unsafe_get cnt d = n then constant := true
    done;
    (not !constant)
    &&
    let pos = ref 0 in
    for d = 0 to mask do
      let c = Array.unsafe_get cnt d in
      Array.unsafe_set cnt d !pos;
      pos := !pos + c
    done;
    true

  (* Deals [src.{0..n-1}] into [dst] by the digit at [shift], its bucket
     starts in [starts]. *)
  let deal (src : t) (dst : t) n base shift mask (starts : int array) =
    for i = 0 to n - 1 do
      let x = Bigarray.Array1.unsafe_get src i in
      let d = ((x - base) lsr shift) land mask in
      let slot = Array.unsafe_get starts d in
      Bigarray.Array1.unsafe_set dst slot x;
      Array.unsafe_set starts d (slot + 1)
    done

  (* [deal], also counting the digit at [shift'] into [cnt] (which must
     hold zeros) *)
  let deal_count (src : t) (dst : t) n base shift mask (starts : int array) shift' (cnt : int array) =
    for i = 0 to n - 1 do
      let x = Bigarray.Array1.unsafe_get src i in
      let v = x - base in
      let d = (v lsr shift) land mask in
      let slot = Array.unsafe_get starts d in
      Bigarray.Array1.unsafe_set dst slot x;
      Array.unsafe_set starts d (slot + 1);
      let e = (v lsr shift') land mask in
      Array.unsafe_set cnt e (Array.unsafe_get cnt e + 1)
    done

  (* LSD radix sort.  Keys are ranked by [x - min] read as an unsigned
     63-bit value, which orders every int (negatives, [min_int] and
     [max_int] included) without a special case.  The range's [bits]
     significant bits are cut into [ceil (bits / 11)] digits of equal
     width, least significant first, and each pass deals the keys stably
     by one digit into the other of two buffers (the input and an n-slot
     scratch).  Counting is fused: the first read finds min and max,
     counts ascents and descents, and counts the low 11 bits of [x];
     digit 0 of [x - min] is that table rotated by [min]'s low bits (and
     folded to the digit width), and each pass counts the next digit as
     it deals.  A pass whose digit is constant is skipped (the next digit
     is then counted on its own).  An input with no descent is left as
     it is and one with no ascent is reversed in place.  The keys always
     end in the input's own storage: after an odd number of passes one
     blit copies them back.  Extra memory: the n-slot scratch (the
     caller's, or a fresh one) and two 2048-slot count tables. *)
  let sort ?scratch (a : t) : unit =
    let n = length a in
    (match scratch with
    | Some (s : t) when length s < n -> invalid_arg "Flat.Int.sort: scratch shorter than the input"
    | _ -> ());
    if n <= insertion_cutoff then insertion_sort a n
    else begin
      let low = Array.make radix 0 in
      let x0 = Bigarray.Array1.unsafe_get a 0 in
      let lo = ref x0 and hi = ref x0 and prev = ref x0 in
      let ascents = ref 0 and descents = ref 0 in
      for i = 0 to n - 1 do
        let x = Bigarray.Array1.unsafe_get a i in
        if x < !lo then lo := x else if x > !hi then hi := x;
        ascents := !ascents + Bool.to_int (x > !prev);
        descents := !descents + Bool.to_int (x < !prev);
        prev := x;
        let d = x land (radix - 1) in
        Array.unsafe_set low d (Array.unsafe_get low d + 1)
      done;
      if !descents = 0 then ()
      else if !ascents = 0 then reverse a n
      else begin
        let base = !lo in
        let rec width r = if r = 0 then 0 else 1 + width (r lsr 1) in
        let bits = width (!hi - base) in
        let passes = (bits + digit_bits - 1) / digit_bits in
        let w = (bits + passes - 1) / passes in
        let mask = (1 lsl w) - 1 in
        (* digit 0 of [x - base] is [(x land 2047) - (base land 2047)]
           modulo 2^w *)
        let cur = ref (Array.make radix 0) and next = ref low in
        let r = base land (radix - 1) in
        for d = 0 to radix - 1 do
          let e = (d - r) land mask in
          Array.unsafe_set !cur e (Array.unsafe_get !cur e + Array.unsafe_get low d)
        done;
        let scratch = match scratch with Some s -> s | None -> create int n in
        let src = ref a and dst = ref scratch in
        let counted = ref true and moves = ref 0 in
        for p = 0 to passes - 1 do
          let shift = p * w in
          if not !counted then begin
            Array.fill !cur 0 (mask + 1) 0;
            count !src n base shift mask !cur
          end;
          counted := false;
          if bucket_starts !cur mask n then begin
            if p < passes - 1 then begin
              Array.fill !next 0 (mask + 1) 0;
              deal_count !src !dst n base shift mask !cur (shift + w) !next;
              counted := true
            end
            else deal !src !dst n base shift mask !cur;
            let s = !src and c = !cur in
            src := !dst;
            dst := s;
            cur := !next;
            next := c;
            incr moves
          end
        done;
        if !moves land 1 = 1 then blit ~src:(sub_view scratch ~pos:0 ~len:n) ~dst:a
      end
    end

  (* MIDVALUE: the middle element of an already-sorted chunk. *)
  let midvalue (a : t) : int option = if length a = 0 then None else Some (get a (length a / 2))

  (* SPLIT at a pivot by binary search; both halves are O(1) zero-copy
     sub-views of the input (the boxed kernel pays two [Array.sub]
     copies here). *)
  let split_at (pivot : int) (a : t) : t * t =
    let n = length a in
    let rec bs lo hi =
      if lo >= hi then lo
      else begin
        let mid = (lo + hi) / 2 in
        if get a mid <= pivot then bs (mid + 1) hi else bs lo mid
      end
    in
    let cut = bs 0 n in
    (sub_view a ~pos:0 ~len:cut, sub_view a ~pos:cut ~len:(n - cut))

  (* MERGE two sorted chunks (left-biased on ties, like the boxed kernel
     — irrelevant for int keys, kept for symmetry) into a prefix view of
     [into] when the result fits there, else into fresh storage. *)
  let merge ?into (a : t) (b : t) : t =
    let na = length a and nb = length b in
    let (out : t) =
      match into with
      | Some dst when length dst >= na + nb -> sub_view dst ~pos:0 ~len:(na + nb)
      | _ -> create int (na + nb)
    in
    let i = ref 0 and j = ref 0 in
    for k = 0 to na + nb - 1 do
      if
        !i < na
        && (!j >= nb || Bigarray.Array1.unsafe_get a !i <= Bigarray.Array1.unsafe_get b !j)
      then begin
        Bigarray.Array1.unsafe_set out k (Bigarray.Array1.unsafe_get a !i);
        incr i
      end
      else begin
        Bigarray.Array1.unsafe_set out k (Bigarray.Array1.unsafe_get b !j);
        incr j
      end
    done;
    out

  let is_sorted (a : t) : bool =
    let n = length a in
    let rec go i = i >= n || (Bigarray.Array1.unsafe_get a (i - 1) <= Bigarray.Array1.unsafe_get a i && go (i + 1)) in
    go 1

  let of_int_array ?into (src : int array) : t = copy_in "Flat.Int.of_int_array" ?into int src
  let to_int_array (a : t) : int array = to_array a
end
