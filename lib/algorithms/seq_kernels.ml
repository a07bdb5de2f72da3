(* The sequential base-language procedures of the paper's examples
   (SEQ_QUICKSORT, MIDVALUE, SPLIT, MERGE, PARTIALPIVOT, UPDATE).  In the
   paper these are Fortran or C; here they are ordinary OCaml functions —
   SCL only requires them to be sequential black boxes. *)

(* SEQ_QUICKSORT.  The paper's is a quicksort, but SCL only calls it, so
   any sequential sort will do: this is the flat tier's LSD radix sort
   ([Flat.Int.sort], whose plan and pass loop it shares through
   [Scl.Radix]) with the storage-typed loops written for [int array],
   and 8-bit digits, which measured fastest at the service's 1 000 keys.
   It never writes its input: the result is a fresh array. *)
let digit_bits = 8
let radix = 1 lsl digit_bits

let insertion_sort (a : int array) n =
  for i = 1 to n - 1 do
    let x = Array.unsafe_get a i in
    let j = ref (i - 1) in
    while !j >= 0 && Array.unsafe_get a !j > x do
      Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
      decr j
    done;
    Array.unsafe_set a (!j + 1) x
  done

let loops : int array Scl.Radix.loops =
  {
    count =
      (fun src n base shift mask cnt ->
        for i = 0 to n - 1 do
          let d = ((Array.unsafe_get src i - base) lsr shift) land mask in
          Array.unsafe_set cnt d (Array.unsafe_get cnt d + 1)
        done);
    deal =
      (fun src dst n base shift mask starts ->
        for i = 0 to n - 1 do
          let x = Array.unsafe_get src i in
          let d = ((x - base) lsr shift) land mask in
          let slot = Array.unsafe_get starts d in
          Array.unsafe_set dst slot x;
          Array.unsafe_set starts d (slot + 1)
        done);
    deal_count =
      (fun src dst n base shift mask starts shift' cnt ->
        for i = 0 to n - 1 do
          let x = Array.unsafe_get src i in
          let v = x - base in
          let d = (v lsr shift) land mask in
          let slot = Array.unsafe_get starts d in
          Array.unsafe_set dst slot x;
          Array.unsafe_set starts d (slot + 1);
          let e = (v lsr shift') land mask in
          Array.unsafe_set cnt e (Array.unsafe_get cnt e + 1)
        done);
  }

let quicksort (a : int array) : int array =
  let n = Array.length a in
  if n <= Scl.Radix.insertion_cutoff then begin
    let a = Array.copy a in
    insertion_sort a n;
    a
  end
  else begin
    let low = Array.make radix 0 in
    let x0 = Array.unsafe_get a 0 in
    let lo = ref x0 and hi = ref x0 and prev = ref x0 in
    let ascents = ref 0 and descents = ref 0 in
    for i = 0 to n - 1 do
      let x = Array.unsafe_get a i in
      if x < !lo then lo := x else if x > !hi then hi := x;
      ascents := !ascents + Bool.to_int (x > !prev);
      descents := !descents + Bool.to_int (x < !prev);
      prev := x;
      let d = x land (radix - 1) in
      Array.unsafe_set low d (Array.unsafe_get low d + 1)
    done;
    if !descents = 0 then Array.copy a
    else if !ascents = 0 then Array.init n (fun i -> Array.unsafe_get a (n - 1 - i))
    else
      Scl.Radix.passes loops
        (Scl.Radix.plan ~digit_bits (!hi - !lo))
        ~n ~base:!lo ~low ~src:a ~dst:(Array.make n 0)
        ~spare:(fun () -> Array.make n 0)
  end

(* MIDVALUE: the median (middle element) of an already-sorted array;
   [None] when empty. *)
let midvalue (a : int array) : int option =
  let n = Array.length a in
  if n = 0 then None else Some a.(n / 2)

(* SPLIT: split a sorted array at a pivot — (elements <= pivot,
   elements > pivot).  O(log n) by binary search. *)
let split_at (pivot : int) (a : int array) : int array * int array =
  let n = Array.length a in
  (* first index with a.(i) > pivot *)
  let rec bs lo hi = if lo >= hi then lo else begin
      let mid = (lo + hi) / 2 in
      if a.(mid) <= pivot then bs (mid + 1) hi else bs lo mid
    end
  in
  let cut = bs 0 n in
  (Array.sub a 0 cut, Array.sub a cut (n - cut))

(* MERGE: merge two sorted arrays. *)
let merge (a : int array) (b : int array) : int array =
  let na = Array.length a and nb = Array.length b in
  if na = 0 then Array.copy b
  else if nb = 0 then Array.copy a
  else begin
    let out = Array.make (na + nb) a.(0) in
    let i = ref 0 and j = ref 0 in
    for k = 0 to na + nb - 1 do
      if !i < na && (!j >= nb || a.(!i) <= b.(!j)) then begin
        out.(k) <- a.(!i);
        incr i
      end
      else begin
        out.(k) <- b.(!j);
        incr j
      end
    done;
    out
  end

(* Stops at the first descent. *)
let is_sorted (a : int array) : bool =
  let n = Array.length a in
  let i = ref 1 in
  while !i < n && Array.unsafe_get a (!i - 1) <= Array.unsafe_get a !i do
    incr i
  done;
  !i >= n

(* --- linear-algebra kernels for the Gauss–Jordan example ---------------- *)

(* PARTIALPIVOT: in column [col] (length n), among rows i..n-1, the row
   with the largest absolute value. *)
let partial_pivot ~row (col : float array) : int =
  let n = Array.length col in
  if row < 0 || row >= n then invalid_arg "Seq_kernels.partial_pivot: row out of range";
  let best = ref row in
  for k = row + 1 to n - 1 do
    if Float.abs col.(k) > Float.abs col.(!best) then best := k
  done;
  !best

(* The pivot data broadcast at elimination step [i]: the row swapped into
   position, the pivot value, and the per-row multipliers. *)
type pivot_info = { swap_row : int; pivot : float; multipliers : float array }

(* Compute pivot info from the pivot column at step [row] (after which the
   column owner also knows the swap). *)
let make_pivot_info ~row (col : float array) : pivot_info =
  let r = partial_pivot ~row col in
  let col = Array.copy col in
  let t = col.(row) in
  col.(row) <- col.(r);
  col.(r) <- t;
  let pivot = col.(row) in
  if Float.abs pivot < 1e-12 then failwith "Gauss: matrix is singular to working precision";
  let multipliers = Array.map (fun v -> v /. pivot) col in
  { swap_row = r; pivot; multipliers }

(* UPDATE: apply one Gauss–Jordan elimination step to a column, in place on
   a fresh copy: swap the pivot row in, eliminate all other rows, normalise
   the pivot row. *)
let update ~row (info : pivot_info) (col : float array) : float array =
  let col = Array.copy col in
  let t = col.(row) in
  col.(row) <- col.(info.swap_row);
  col.(info.swap_row) <- t;
  let v = col.(row) in
  for k = 0 to Array.length col - 1 do
    if k <> row then col.(k) <- col.(k) -. (info.multipliers.(k) *. v)
  done;
  col.(row) <- v /. info.pivot;
  col

(* Dense sequential baseline: Gauss–Jordan solve of A x = b. *)
let gauss_seq (a : float array array) (b : float array) : float array =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    Array.iter
      (fun r -> if Array.length r <> n then invalid_arg "Seq_kernels.gauss_seq: non-square matrix")
      a;
    if Array.length b <> n then invalid_arg "Seq_kernels.gauss_seq: rhs length mismatch";
    (* augmented, row-major *)
    let m = Array.init n (fun i -> Array.append (Array.copy a.(i)) [| b.(i) |]) in
    for i = 0 to n - 1 do
      let best = ref i in
      for k = i + 1 to n - 1 do
        if Float.abs m.(k).(i) > Float.abs m.(!best).(i) then best := k
      done;
      let tmp = m.(i) in
      m.(i) <- m.(!best);
      m.(!best) <- tmp;
      let pivot = m.(i).(i) in
      if Float.abs pivot < 1e-12 then failwith "Gauss: matrix is singular to working precision";
      for j = 0 to n do
        m.(i).(j) <- m.(i).(j) /. pivot
      done;
      for k = 0 to n - 1 do
        if k <> i then begin
          let f = m.(k).(i) in
          if f <> 0.0 then
            for j = 0 to n do
              m.(k).(j) <- m.(k).(j) -. (f *. m.(i).(j))
            done
        end
      done
    done;
    Array.init n (fun i -> m.(i).(n))
  end

(* Residual max |Ax - b|: the accuracy check used by tests. *)
let residual (a : float array array) (x : float array) (b : float array) : float =
  let n = Array.length a in
  let worst = ref 0.0 in
  for i = 0 to n - 1 do
    let s = ref 0.0 in
    for j = 0 to n - 1 do
      s := !s +. (a.(i).(j) *. x.(j))
    done;
    worst := Float.max !worst (Float.abs (!s -. b.(i)))
  done;
  !worst

(* Dense n x n matrix multiply, the sequential baseline for Cannon. *)
let matmul (a : float array array) (b : float array array) : float array array =
  let n = Array.length a in
  let p = if n = 0 then 0 else Array.length b.(0) in
  let m = Array.length b in
  Array.init n (fun i ->
      Array.init p (fun j ->
          let s = ref 0.0 in
          for k = 0 to m - 1 do
            s := !s +. (a.(i).(k) *. b.(k).(j))
          done;
          !s))
