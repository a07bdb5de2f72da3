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
  let rec go i = i >= n || (Bigarray.Array1.unsafe_get a i = Bigarray.Array1.unsafe_get b i && go (i + 1)) in
  go 0

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

  (* Out-of-place MSD radix sort.  Keys are ranked by [x - min] read as an
     unsigned 63-bit value, which orders every int (negatives, [min_int]
     and [max_int] included) without a special case.  Each level counts
     the sizes of the 256 buckets of one 8-bit digit, deals the keys into
     their buckets in the other buffer (input to scratch, scratch back to
     input at the level below), then sorts each bucket on the next digit
     down.  The top digit sits just under the range's highest set bit, so
     a level never wastes a pass on constant high bits; the digit below a
     shift under 8 is taken at shift 0, overlapping bits already equal in
     the bucket, and a level whose keys all share one digit moves nothing.
     A bucket no longer than [insertion_cutoff] is finished by an
     insertion sort that reads it from whichever buffer holds it and
     writes the input; so is a bucket at shift 0, whose keys are all
     equal (the sort is then a copy, or a scan in place).  So the keys
     always end in the input's own storage.  Extra memory: the n-slot
     scratch (the caller's, or a fresh one) and one 256-slot count table
     per level (at most 8). *)
  let sort ?scratch (a : t) : unit =
    let n = length a in
    (match scratch with
    | Some (s : t) when length s < n -> invalid_arg "Flat.Int.sort: scratch shorter than the input"
    | _ -> ());
    (* sorts [src.{lo..hi-1}] into [a.{lo..hi-1}]; [src] may be [a] *)
    let insert_from (src : t) lo hi =
      for i = lo to hi - 1 do
        let x = Bigarray.Array1.unsafe_get src i in
        let j = ref (i - 1) in
        while !j >= lo && Bigarray.Array1.unsafe_get a !j > x do
          Bigarray.Array1.unsafe_set a (!j + 1) (Bigarray.Array1.unsafe_get a !j);
          decr j
        done;
        Bigarray.Array1.unsafe_set a (!j + 1) x
      done
    in
    if n <= insertion_cutoff then insert_from a 0 n
    else begin
      let lo_key = ref (Bigarray.Array1.unsafe_get a 0) and hi_key = ref (Bigarray.Array1.unsafe_get a 0) in
      for i = 1 to n - 1 do
        let x = Bigarray.Array1.unsafe_get a i in
        if x < !lo_key then lo_key := x else if x > !hi_key then hi_key := x
      done;
      let base = !lo_key in
      let range = !hi_key - base in
      (* lowest shift leaving at most 8 significant bits of [range] *)
      let rec top s = if (range lsr s) lsr 8 = 0 then s else top (s + 1) in
      let top_shift = top 0 in
      let below shift = if shift > 8 then shift - 8 else 0 in
      (* level k's slots [256k, 256k + 256): each bucket's size, then its
         next free slot, which ends as the bucket's end *)
      let ptr = Array.make (((top_shift + 7) / 8 + 1) * 256) 0 in
      (* sorts the keys held in [src.{lo..hi-1}] into [a], dealing
         through [dst], the other buffer *)
      let rec level (src : t) (dst : t) lo hi shift off =
        Array.fill ptr off 256 0;
        for i = lo to hi - 1 do
          let d = off + (((Bigarray.Array1.unsafe_get src i - base) lsr shift) land 255) in
          Array.unsafe_set ptr d (Array.unsafe_get ptr d + 1)
        done;
        let first = off + (((Bigarray.Array1.unsafe_get src lo - base) lsr shift) land 255) in
        if Array.unsafe_get ptr first = hi - lo then begin
          (* one bucket holds every key: nothing to move at this digit *)
          if shift > 0 then level src dst lo hi (below shift) off else insert_from src lo hi
        end
        else begin
          let pos = ref lo in
          for b = off to off + 255 do
            let c = Array.unsafe_get ptr b in
            Array.unsafe_set ptr b !pos;
            pos := !pos + c
          done;
          for i = lo to hi - 1 do
            let x = Bigarray.Array1.unsafe_get src i in
            let d = off + (((x - base) lsr shift) land 255) in
            let slot = Array.unsafe_get ptr d in
            Bigarray.Array1.unsafe_set dst slot x;
            Array.unsafe_set ptr d (slot + 1)
          done;
          let start = ref lo in
          for b = off to off + 255 do
            let stop = Array.unsafe_get ptr b in
            if shift > 0 && stop - !start > insertion_cutoff then
              level dst src !start stop (below shift) (off + 256)
            else insert_from dst !start stop;
            start := stop
          done
        end
      in
      if range <> 0 then
        level a (match scratch with Some s -> s | None -> create int n) 0 n top_shift 0
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
