(* Flat-tier host execution: the unboxed counterpart of [Exec] over
   [Flat.float1] payloads.

   The boxed backends box every float element-wise — each [op] application
   allocates its result and every array slot is a pointer.  Here the
   payload is a C-layout Bigarray and the operator is a first-order
   description ([fun1]/[fun2]): a loop matches the operator ONCE and then
   runs a monomorphic [unsafe_get]/[unsafe_set] body, so a known primitive
   (Add, Scale c, ...) executes with no per-element closure call and no
   per-element allocation.  The escape hatches [Fun1]/[Fun2] accept
   arbitrary OCaml closures and pay the usual boxed calling convention —
   only unknown operators cost what the boxed tier costs everywhere.

   The pool scan is a Blelloch-style two-phase layout (the work-efficient
   discipline of the classic GPU scan): phase 1 reduces each chunk into an
   unboxed partials array WITHOUT touching the output, a sequential
   exclusive scan of the partials yields each chunk's carry-in, and phase 2
   downsweeps every chunk into the output exactly once with its carry
   folded into the first element.  Two data passes and one unboxed
   [float array] of per-chunk state — versus the boxed three-phase scan
   (local scans, option-boxed offsets, a third rewrite pass over the whole
   output).  Chunks partition by [Flat.sub_view] (O(1) window headers, no
   copying) and size by the pool's bytes-aware grain, so 8-byte floats get
   larger chunks than boxed values would.

   Bitwise discipline: every loop applies the operators in ascending index
   order, chunk results combine in chunk order, and a chunk's carry is
   folded left of its first element — the same element-order contract as
   the boxed skeletons, so on exactly-associative operators (the [Fn]
   float library: dyadic-exact fadd, fmax, fmin) flat and boxed results
   are bit-identical on both backends, which is how the property tests
   pin this module. *)

module A = Bigarray.Array1

type fun1 =
  | Id
  | Neg
  | Scale of float  (* x *. c *)
  | Offset of float  (* x +. c *)
  | Fun1 of (float -> float)

type fun2 = Add | Mul | Max | Min | Fun2 of (float -> float -> float)

let apply1 op x =
  match op with Id -> x | Neg -> -.x | Scale c -> x *. c | Offset c -> x +. c | Fun1 f -> f x

let apply2 op a b =
  match op with
  | Add -> a +. b
  | Mul -> a *. b
  | Max -> Float.max a b
  | Min -> Float.min a b
  | Fun2 f -> f a b

type t = {
  name : string;
  fmap : fun1 -> Flat.float1 -> Flat.float1;
  ffold : fun2 -> Flat.float1 -> float;  (* combine in index order; non-empty *)
  fscan : fun2 -> Flat.float1 -> Flat.float1;  (* inclusive prefix *)
  fmap_fold : fun1 -> fun2 -> Flat.float1 -> float;  (* ffold op (fmap f a), one pass *)
  fmap_scan : fun1 -> fun2 -> Flat.float1 -> Flat.float1;  (* fscan op (fmap f a), one pass *)
}

(* --- monomorphic range kernels -------------------------------------------

   The operator match sits OUTSIDE the loop; each arm is a closed loop
   whose body the compiler sees whole.  [apply1] calls inside the [fun2]
   arms are direct calls to a small known function — inlined, no closure,
   no boxing for the primitive [fun1] constructors. *)

let map_into op ~(src : Flat.float1) ~(dst : Flat.float1) ~lo ~hi =
  match op with
  | Id -> if src != dst then for i = lo to hi - 1 do A.unsafe_set dst i (A.unsafe_get src i) done
  | Neg -> for i = lo to hi - 1 do A.unsafe_set dst i (-.(A.unsafe_get src i)) done
  | Scale c -> for i = lo to hi - 1 do A.unsafe_set dst i (A.unsafe_get src i *. c) done
  | Offset c -> for i = lo to hi - 1 do A.unsafe_set dst i (A.unsafe_get src i +. c) done
  | Fun1 f -> for i = lo to hi - 1 do A.unsafe_set dst i (f (A.unsafe_get src i)) done

(* Reduce [lo, hi) with the map fused into the read; [lo < hi].  Tail
   recursion keeps the accumulator in a register (no [float ref] cell to
   re-box per iteration). *)
let map_reduce_range op1 op2 (a : Flat.float1) ~lo ~hi =
  let x0 = apply1 op1 (A.unsafe_get a lo) in
  match op2 with
  | Add ->
      let rec go i acc = if i >= hi then acc else go (i + 1) (acc +. apply1 op1 (A.unsafe_get a i)) in
      go (lo + 1) x0
  | Mul ->
      let rec go i acc = if i >= hi then acc else go (i + 1) (acc *. apply1 op1 (A.unsafe_get a i)) in
      go (lo + 1) x0
  | Max ->
      let rec go i acc =
        if i >= hi then acc else go (i + 1) (Float.max acc (apply1 op1 (A.unsafe_get a i)))
      in
      go (lo + 1) x0
  | Min ->
      let rec go i acc =
        if i >= hi then acc else go (i + 1) (Float.min acc (apply1 op1 (A.unsafe_get a i)))
      in
      go (lo + 1) x0
  | Fun2 f ->
      let rec go i acc = if i >= hi then acc else go (i + 1) (f acc (apply1 op1 (A.unsafe_get a i))) in
      go (lo + 1) x0

(* Inclusive scan of [lo, hi) into [dst], with the map fused into the read
   and the chunk's carry already folded into [first] (= the value of
   [dst.(lo)]).  The downsweep of the two-phase layout: each output slot
   is written exactly once. *)
let map_scan_into op1 op2 ~(src : Flat.float1) ~(dst : Flat.float1) ~lo ~hi ~first =
  A.unsafe_set dst lo first;
  match op2 with
  | Add ->
      for i = lo + 1 to hi - 1 do
        A.unsafe_set dst i (A.unsafe_get dst (i - 1) +. apply1 op1 (A.unsafe_get src i))
      done
  | Mul ->
      for i = lo + 1 to hi - 1 do
        A.unsafe_set dst i (A.unsafe_get dst (i - 1) *. apply1 op1 (A.unsafe_get src i))
      done
  | Max ->
      for i = lo + 1 to hi - 1 do
        A.unsafe_set dst i (Float.max (A.unsafe_get dst (i - 1)) (apply1 op1 (A.unsafe_get src i)))
      done
  | Min ->
      for i = lo + 1 to hi - 1 do
        A.unsafe_set dst i (Float.min (A.unsafe_get dst (i - 1)) (apply1 op1 (A.unsafe_get src i)))
      done
  | Fun2 f ->
      for i = lo + 1 to hi - 1 do
        A.unsafe_set dst i (f (A.unsafe_get dst (i - 1)) (apply1 op1 (A.unsafe_get src i)))
      done

(* --- observability (same discipline as Exec.instrument) ------------------ *)

let instrument e =
  let span prim = Obs.Span.make (Printf.sprintf "flat_exec.%s.%s" e.name prim) in
  let s_fmap = span "fmap"
  and s_ffold = span "ffold"
  and s_fscan = span "fscan"
  and s_fmap_fold = span "fmap_fold"
  and s_fmap_scan = span "fmap_scan" in
  let calls = Obs.Counter.make (Printf.sprintf "flat_exec.%s.calls" e.name) in
  {
    name = e.name;
    fmap =
      (fun op a ->
        Obs.Counter.incr calls;
        Obs.Span.timed s_fmap (fun () -> e.fmap op a));
    ffold =
      (fun op a ->
        Obs.Counter.incr calls;
        Obs.Span.timed s_ffold (fun () -> e.ffold op a));
    fscan =
      (fun op a ->
        Obs.Counter.incr calls;
        Obs.Span.timed s_fscan (fun () -> e.fscan op a));
    fmap_fold =
      (fun f op a ->
        Obs.Counter.incr calls;
        Obs.Span.timed s_fmap_fold (fun () -> e.fmap_fold f op a));
    fmap_scan =
      (fun f op a ->
        Obs.Counter.incr calls;
        Obs.Span.timed s_fmap_scan (fun () -> e.fmap_scan f op a));
  }

(* --- sequential backend (the defining semantics) ------------------------- *)

let seq_map_fold f op a =
  let n = Flat.length a in
  if n = 0 then invalid_arg "Flat_exec.ffold: empty array";
  map_reduce_range f op a ~lo:0 ~hi:n

let seq_map_scan f op a =
  let n = Flat.length a in
  let out = Flat.create Flat.float64 n in
  if n > 0 then map_scan_into f op ~src:a ~dst:out ~lo:0 ~hi:n ~first:(apply1 f (Flat.get a 0));
  out

let seq_map f a =
  let n = Flat.length a in
  let out = Flat.create Flat.float64 n in
  map_into f ~src:a ~dst:out ~lo:0 ~hi:n;
  out

let sequential =
  instrument
    {
      name = "sequential";
      fmap = seq_map;
      ffold = (fun op a -> seq_map_fold Id op a);
      fscan = (fun op a -> seq_map_scan Id op a);
      fmap_fold = seq_map_fold;
      fmap_scan = seq_map_scan;
    }

(* --- pool backend --------------------------------------------------------- *)

let on_pool pool =
  let open Runtime in
  (* Bytes-aware chunking: 8-byte elements get the 2 KiB floor, so small
     flat arrays run as one task instead of paying fork/join per 32
     elements of near-free loop body. *)
  let bounds_for n =
    let grain = Pool.grain_for_bytes pool ~elem_bytes:8 n in
    Exec.chunk_bounds n ((n + grain - 1) / grain)
  in
  let fmap op a =
    let n = Flat.length a in
    let out = Flat.create Flat.float64 n in
    if n > 0 then begin
      let bounds = bounds_for n in
      let nchunks = Array.length bounds - 1 in
      Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:nchunks (fun k ->
          let lo = bounds.(k) and hi = bounds.(k + 1) in
          let len = hi - lo in
          map_into op
            ~src:(Flat.sub_view a ~pos:lo ~len)
            ~dst:(Flat.sub_view out ~pos:lo ~len)
            ~lo:0 ~hi:len)
    end;
    out
  in
  (* Two-phase reduce: unboxed per-chunk partials, combined in chunk order
     (non-commutative [Fun2]s stay safe). *)
  let fmap_fold f op a =
    let n = Flat.length a in
    if n = 0 then invalid_arg "Flat_exec.ffold: empty array";
    let bounds = bounds_for n in
    let nchunks = Array.length bounds - 1 in
    if nchunks = 1 then map_reduce_range f op a ~lo:0 ~hi:n
    else begin
      let partials = Array.make nchunks 0.0 in
      Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:nchunks (fun k ->
          let lo = bounds.(k) and hi = bounds.(k + 1) in
          let chunk = Flat.sub_view a ~pos:lo ~len:(hi - lo) in
          Array.unsafe_set partials k (map_reduce_range f op chunk ~lo:0 ~hi:(hi - lo)));
      let rec go k acc =
        if k >= nchunks then acc else go (k + 1) (apply2 op acc (Array.unsafe_get partials k))
      in
      go 1 partials.(0)
    end
  in
  (* Two-phase Blelloch scan.  Phase 1 NEVER writes the output: each chunk
     reduces into one slot of the unboxed [partials] array.  The exclusive
     scan of the partials is sequential over nchunks values (tiny).  Phase
     2 downsweeps: chunk 0 scans plainly; chunk k >= 1 folds its carry
     into its first element and scans on — every output slot is written
     exactly once, two passes over the data in total.  [Exec.chunk_bounds]
     never produces an empty chunk, so every chunk has a first element and
     no option boxing is needed anywhere. *)
  let fmap_scan f op a =
    let n = Flat.length a in
    let out = Flat.create Flat.float64 n in
    if n > 0 then begin
      let bounds = bounds_for n in
      let nchunks = Array.length bounds - 1 in
      if nchunks = 1 then
        map_scan_into f op ~src:a ~dst:out ~lo:0 ~hi:n ~first:(apply1 f (Flat.get a 0))
      else begin
        (* Phase 1: local reduce per chunk into the partials array. *)
        let partials = Array.make nchunks 0.0 in
        Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:nchunks (fun k ->
            let lo = bounds.(k) and hi = bounds.(k + 1) in
            let chunk = Flat.sub_view a ~pos:lo ~len:(hi - lo) in
            Array.unsafe_set partials k (map_reduce_range f op chunk ~lo:0 ~hi:(hi - lo)));
        (* Exclusive scan of the partials, in place: after this,
           partials.(k) is chunk k's carry-in (undefined at k = 0, never
           read there). *)
        let carry = ref partials.(0) in
        for k = 1 to nchunks - 1 do
          let total = partials.(k) in
          partials.(k) <- !carry;
          carry := apply2 op !carry total
        done;
        (* Phase 2: downsweep each chunk with its carry folded into the
           first element. *)
        Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:nchunks (fun k ->
            let lo = bounds.(k) and hi = bounds.(k + 1) in
            let len = hi - lo in
            let src = Flat.sub_view a ~pos:lo ~len and dst = Flat.sub_view out ~pos:lo ~len in
            let x0 = apply1 f (Flat.get src 0) in
            let first = if k = 0 then x0 else apply2 op (Array.unsafe_get partials k) x0 in
            map_scan_into f op ~src ~dst ~lo:0 ~hi:len ~first)
      end
    end;
    out
  in
  instrument
    {
      name = "pool";
      fmap;
      ffold = (fun op a -> fmap_fold Id op a);
      fscan = (fun op a -> fmap_scan Id op a);
      fmap_fold;
      fmap_scan;
    }
