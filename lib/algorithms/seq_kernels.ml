(* The sequential base-language procedures of the paper's examples
   (SEQ_QUICKSORT, MIDVALUE, SPLIT, MERGE, PARTIALPIVOT, UPDATE).  In the
   paper these are Fortran or C; here they are ordinary OCaml functions —
   SCL only requires them to be sequential black boxes. *)

(* SEQ_QUICKSORT: quicksort with insertion sort below a cutoff; returns a
   fresh sorted array.  The partition is Hoare's: both scans stop on keys
   equal to the median-of-three pivot and swap across the middle, so
   presorted and reversed runs split evenly and stay ordered (a three-way
   partition's swaps of each larger key to the back reverse an ordered
   tail), and runs of equal keys still split in half. *)
let quicksort (a : int array) : int array =
  let a = Array.copy a in
  let swap i j =
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  in
  let insertion lo hi =
    for i = lo + 1 to hi do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  in
  let rec qs lo hi =
    if hi - lo < 16 then insertion lo hi
    else begin
      (* median-of-three pivot; a.(lo) <= pivot <= a.(hi) then bound both
         scans *)
      let mid = lo + ((hi - lo) / 2) in
      if a.(mid) < a.(lo) then swap mid lo;
      if a.(hi) < a.(lo) then swap hi lo;
      if a.(hi) < a.(mid) then swap hi mid;
      let pivot = a.(mid) in
      (* afterwards a.(lo..j) <= pivot <= a.(j+1..hi), with lo <= j < hi *)
      let i = ref lo and j = ref hi in
      let crossed = ref false in
      while not !crossed do
        incr i;
        while a.(!i) < pivot do
          incr i
        done;
        decr j;
        while a.(!j) > pivot do
          decr j
        done;
        if !i < !j then swap !i !j else crossed := true
      done;
      qs lo !j;
      qs (!j + 1) hi
    end
  in
  if Array.length a > 1 then qs 0 (Array.length a - 1);
  a

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

let is_sorted (a : int array) : bool =
  let ok = ref true in
  for i = 1 to Array.length a - 1 do
    if a.(i - 1) > a.(i) then ok := false
  done;
  !ok

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
