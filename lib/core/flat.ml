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
   type, not the code, differs.

   The two bulk directions are ranged loops, [copy_in] into flat storage
   and [lay_out] into an OCaml array, so that the domains of a multicore
   run can each take a range of one copy ([Machine.Multicore.run_flat]);
   [of_array] and [concat] are their whole-range case.  Bounds are
   checked once per call, so the loops use unsafe accesses. *)
let copy_in (type a b) (src : a array) ~(into : (a, b) t) ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length src || pos + len > length into then
    invalid_arg "Flat.copy_in: range out of bounds";
  match kind into with
  | Bigarray.Float64 ->
      for i = pos to pos + len - 1 do
        Bigarray.Array1.unsafe_set into i (Array.unsafe_get src i)
      done
  | Bigarray.Int ->
      for i = pos to pos + len - 1 do
        Bigarray.Array1.unsafe_set into i (Array.unsafe_get src i)
      done
  | _ ->
      for i = pos to pos + len - 1 do
        Bigarray.Array1.unsafe_set into i (Array.unsafe_get src i)
      done

let to_flat op ?into kind (src : 'a array) : ('a, 'b) t =
  let n = Array.length src in
  let a =
    match into with
    | None -> create kind n
    | Some dst ->
        if length dst < n then invalid_arg (op ^ ": into is shorter than the array");
        sub_view dst ~pos:0 ~len:n
  in
  copy_in src ~into:a ~pos:0 ~len:n;
  a

let of_array ?into kind src = to_flat "Flat.of_array" ?into kind src

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

let create_array (type a b) (kind : (a, b) Bigarray.kind) n : a array =
  match kind with
  | Bigarray.Float64 -> Array.create_float n
  | Bigarray.Int -> Array.make n 0
  | _ -> invalid_arg "Flat.create_array: kind must be float64 or int"

let total parts = Array.fold_left (fun n p -> n + length p) 0 parts

(* The parts' elements [pos, pos + len) in order, at the same positions
   of [out]: find the part holding [pos], then copy part by part.  The
   parts' run-time kinds are trusted: a part of another kind would be
   misread. *)
let lay_out (type a b) (kind : (a, b) Bigarray.kind) (parts : (a, b) t array) (out : a array) ~pos
    ~len =
  if pos < 0 || len < 0 || pos + len > total parts || pos + len > Array.length out then
    invalid_arg "Flat.lay_out: range out of bounds";
  (* [copy p off q m]: [m] elements of part [p] from [off], at [out.(q)] on *)
  let each_piece copy =
    let k = ref 0 and base = ref 0 in
    while len > 0 && !base + length parts.(!k) <= pos do
      base := !base + length parts.(!k);
      incr k
    done;
    let q = ref pos and stop = pos + len in
    while !q < stop do
      let p = parts.(!k) in
      let m = min (!base + length p) stop - !q in
      copy p (!q - !base) !q m;
      q := !q + m;
      base := !base + length p;
      incr k
    done
  in
  match kind with
  | Bigarray.Float64 ->
      each_piece (fun (p : float1) off q m ->
          for i = 0 to m - 1 do
            Array.unsafe_set out (q + i) (Bigarray.Array1.unsafe_get p (off + i))
          done)
  | Bigarray.Int ->
      each_piece (fun (p : int1) off q m ->
          for i = 0 to m - 1 do
            Array.unsafe_set out (q + i) (Bigarray.Array1.unsafe_get p (off + i))
          done)
  | _ -> invalid_arg "Flat.lay_out: kind must be float64 or int"

(* A part's kind is checked, not trusted: a slice received at the wrong
   annotation carries another one, and [lay_out] would misread it. *)
let concat (type a b) (kind : (a, b) Bigarray.kind) (parts : (a, b) t array) : a array =
  Array.iter
    (fun p ->
      if Bigarray.Array1.kind p <> kind then
        invalid_arg "Flat.concat: a part is not of the requested kind")
    parts;
  match kind with
  | Bigarray.Float64 | Bigarray.Int ->
      let n = total parts in
      let out = create_array kind n in
      lay_out kind parts out ~pos:0 ~len:n;
      out
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
     [into] when the result fits there, else into fresh storage.

     It moves keys in blocks of 8.  When a's next 8 keys are all <= b's
     head (its 8th is), they are copied at once, and likewise b's next 8
     when all are < a's head.  Otherwise come 8 branch-free steps (one
     while a side holds fewer than 8 keys): each stores the smaller head,
     chosen by a mask ([-c] is all ones when [x <= y]), and advances [i]
     or [j] by the compare's 0/1, so no branch depends on a compare's
     outcome.  On interleaved keys the skip tests fail, and predictably;
     on disjoint, run-structured, few-distinct and skewed keys the skips
     move most of them.  Output slot [i + j] is the next one.  When one
     side runs out, the other's tail is copied by one blit. *)
  let merge ?into (a : t) (b : t) : t =
    let na = length a and nb = length b in
    let (out : t) =
      match into with
      | Some dst when length dst >= na + nb -> sub_view dst ~pos:0 ~len:(na + nb)
      | _ -> create int (na + nb)
    in
    let i = ref 0 and j = ref 0 in
    while !i < na && !j < nb do
      let i0 = !i and j0 = !j in
      if i0 + 8 <= na && Bigarray.Array1.unsafe_get a (i0 + 7) <= Bigarray.Array1.unsafe_get b j0 then begin
        for d = 0 to 7 do
          Bigarray.Array1.unsafe_set out (i0 + j0 + d) (Bigarray.Array1.unsafe_get a (i0 + d))
        done;
        i := i0 + 8
      end
      else if j0 + 8 <= nb && Bigarray.Array1.unsafe_get b (j0 + 7) < Bigarray.Array1.unsafe_get a i0 then begin
        for d = 0 to 7 do
          Bigarray.Array1.unsafe_set out (i0 + j0 + d) (Bigarray.Array1.unsafe_get b (j0 + d))
        done;
        j := j0 + 8
      end
      else
        for _ = 1 to if i0 + 8 <= na && j0 + 8 <= nb then 8 else 1 do
          let i1 = !i and j1 = !j in
          let x = Bigarray.Array1.unsafe_get a i1 and y = Bigarray.Array1.unsafe_get b j1 in
          let c = Bool.to_int (x <= y) in
          Bigarray.Array1.unsafe_set out (i1 + j1) (y lxor ((x lxor y) land -c));
          i := i1 + c;
          j := j1 + 1 - c
        done
    done;
    let i = !i and j = !j in
    if i < na then blit ~src:(sub_view a ~pos:i ~len:(na - i)) ~dst:(sub_view out ~pos:(i + j) ~len:(na - i))
    else if j < nb then blit ~src:(sub_view b ~pos:j ~len:(nb - j)) ~dst:(sub_view out ~pos:(i + j) ~len:(nb - j));
    out

  let is_sorted (a : t) : bool =
    let n = length a in
    let rec go i = i >= n || (Bigarray.Array1.unsafe_get a (i - 1) <= Bigarray.Array1.unsafe_get a i && go (i + 1)) in
    go 1

  let of_int_array ?into (src : int array) : t = to_flat "Flat.Int.of_int_array" ?into int src
  let to_int_array (a : t) : int array = to_array a
end
