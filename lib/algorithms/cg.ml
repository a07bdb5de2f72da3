(* Conjugate gradients for the 1-D Laplacian system A x = b
   (A = tridiag(-1, 2, -1), symmetric positive definite) — the iterative
   solver whose skeleton mix is the complement of Jacobi's: every iteration
   needs two global reductions (dot products = fold) plus a neighbour
   stencil (matvec), making it the classic latency-versus-reduction
   workload. The flat tier at the end runs the same iteration in two fused
   passes over each rank's block, where the boxed body makes five. *)

open Scl

type result = { solution : float array; iterations : int; residual_norm : float }

(* y = A x for the 1-D Laplacian (zero Dirichlet boundary). *)
let laplacian_matvec (x : float array) : float array =
  let n = Array.length x in
  Array.init n (fun i ->
      let left = if i > 0 then x.(i - 1) else 0.0 in
      let right = if i < n - 1 then x.(i + 1) else 0.0 in
      (2.0 *. x.(i)) -. left -. right)

let dot a b =
  let s = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    s := !s +. (a.(i) *. b.(i))
  done;
  !s

(* --- sequential reference ----------------------------------------------------- *)

let solve_seq ?(tol = 1e-10) ?(max_iter = 10_000) (b : float array) : result =
  let n = Array.length b in
  let x = Array.make n 0.0 in
  let r = Array.copy b in
  let p = Array.copy b in
  let rr = ref (dot r r) in
  let it = ref 0 in
  while sqrt !rr >= tol && !it < max_iter do
    let ap = laplacian_matvec p in
    let alpha = !rr /. dot p ap in
    for i = 0 to n - 1 do
      x.(i) <- x.(i) +. (alpha *. p.(i));
      r.(i) <- r.(i) -. (alpha *. ap.(i))
    done;
    let rr' = dot r r in
    let beta = rr' /. !rr in
    for i = 0 to n - 1 do
      p.(i) <- r.(i) +. (beta *. p.(i))
    done;
    rr := rr';
    incr it
  done;
  { solution = x; iterations = !it; residual_norm = sqrt !rr }

(* --- host-SCL version ----------------------------------------------------------
   Vectors as ParArrays of floats; dot products are zip_with + fold, axpys
   are zip_with, the matvec is an imap that reads its neighbours. *)

let solve_scl ?(exec = Exec.sequential) ?(tol = 1e-10) ?(max_iter = 10_000) (b : float array) :
    result =
  let n = Array.length b in
  if n = 0 then { solution = [||]; iterations = 0; residual_norm = 0.0 }
  else begin
    let dot_pa a b =
      Elementary.fold ~exec ( +. ) (Elementary.zip_with ~exec ( *. ) a b)
    in
    let axpy alpha p x = Elementary.zip_with ~exec (fun xi pi -> xi +. (alpha *. pi)) x p in
    let matvec p =
      let pa = Par_array.unsafe_to_array p in
      Elementary.imap ~exec
        (fun i v ->
          let left = if i > 0 then pa.(i - 1) else 0.0 in
          let right = if i < n - 1 then pa.(i + 1) else 0.0 in
          (2.0 *. v) -. left -. right)
        p
    in
    let b_pa = Par_array.of_array b in
    let rec go x r p rr it =
      if sqrt rr < tol || it >= max_iter then (x, it, sqrt rr)
      else begin
        let ap = matvec p in
        let alpha = rr /. dot_pa p ap in
        let x = axpy alpha p x in
        let r = axpy (-.alpha) ap r in
        let rr' = dot_pa r r in
        let beta = rr' /. rr in
        let p = Elementary.zip_with ~exec (fun ri pi -> ri +. (beta *. pi)) r p in
        go x r p rr' (it + 1)
      end
    in
    let x0 = Par_array.make n 0.0 in
    let x, iterations, residual_norm = go x0 b_pa b_pa (dot_pa b_pa b_pa) 0 in
    { solution = Par_array.to_array x; iterations; residual_norm }
  end

(* --- simulator version ---------------------------------------------------------- *)

open Machine

let cg_program ?(tol = 1e-10) ?(max_iter = 10_000) (b : float array option) (comm : Comm.t) :
    result option =
  let me = Comm.rank comm in
  let bv = Scl_sim.Dvec.scatter comm ~root:0 b in
  let n = Scl_sim.Dvec.total bv in
  let bl = Scl_sim.Dvec.local bv in
  let ln = Array.length bl in
  let off = Scl_sim.Dvec.offset bv in
  let has_left = off > 0 and has_right = off + ln < n in
  (* local dot + allreduce: the distributed fold *)
  let ddot a b =
    Comm.work_flops comm (2 * max 1 ln);
    let s = ref 0.0 in
    for i = 0 to ln - 1 do
      s := !s +. (a.(i) *. b.(i))
    done;
    Comm.allreduce comm ( +. ) !s
  in
  (* distributed Laplacian matvec: halo exchange + local stencil *)
  let matvec (p : float array) : float array =
    let hl = ref 0.0 and hr = ref 0.0 in
    if ln > 0 then begin
      if has_left then Comm.send comm ~dest:(me - 1) p.(0);
      if has_right then Comm.send comm ~dest:(me + 1) p.(ln - 1);
      if has_left then hl := Comm.recv comm ~src:(me - 1) ();
      if has_right then hr := Comm.recv comm ~src:(me + 1) ()
    end;
    Comm.work_flops comm (Scl_sim.Kernels.stencil_flops ln);
    Array.init ln (fun i ->
        let left = if i > 0 then p.(i - 1) else if has_left then !hl else 0.0 in
        let right = if i < ln - 1 then p.(i + 1) else if has_right then !hr else 0.0 in
        (2.0 *. p.(i)) -. left -. right)
  in
  let x = Array.make ln 0.0 in
  let r = Array.copy bl in
  let p = Array.copy bl in
  let rr = ref (ddot r r) in
  let it = ref 0 in
  while sqrt !rr >= tol && !it < max_iter do
    let ap = matvec p in
    let alpha = !rr /. ddot p ap in
    Comm.work_flops comm (4 * max 1 ln);
    for i = 0 to ln - 1 do
      x.(i) <- x.(i) +. (alpha *. p.(i));
      r.(i) <- r.(i) -. (alpha *. ap.(i))
    done;
    let rr' = ddot r r in
    let beta = rr' /. !rr in
    Comm.work_flops comm (2 * max 1 ln);
    for i = 0 to ln - 1 do
      p.(i) <- r.(i) +. (beta *. p.(i))
    done;
    rr := rr';
    incr it
  done;
  let gathered = Scl_sim.Dvec.gather ~root:0 (Scl_sim.Dvec.of_local comm x) in
  Option.map
    (fun solution -> { solution; iterations = !it; residual_norm = sqrt !rr })
    gathered

let run_cg program backend ?tol ?max_iter ~procs (b : float array) =
  Scl_sim.Spmd.run backend ~procs (fun comm ->
      program ?tol ?max_iter (if Comm.rank comm = 0 then Some b else None) comm)

let solve backend = run_cg cg_program backend

(* --- flat-tier version ----------------------------------------------------------
   The same distributed CG with [Scl.Flat] only where data crosses ranks:
   [b] arrives as a scattered flat block, the halo endpoints of the
   direction vector travel as 1-element bulk slices, and [x] leaves as one
   flat block for the gather. The rank-private vectors x, r, p and ap are
   plain [float array]s: an unchecked [Array.unsafe_get] is one load, where
   a [Bigarray] access also reloads the array's data pointer, which made
   each pass up to 1.7x slower (DESIGN.md, "Fused passes"). Identical block
   geometry, local summation order, and allreduce shape as [cg_program], so
   every dot product — and hence every iterate — is bitwise-identical to
   the boxed oracle at the same [procs].

   Fused passes: the paper's fold/map fusion (fold f ∘ map g = one
   traversal) applied to each dot product and the loop that writes its
   vector, and the p update folded into the next stencil. An iteration
   walks the local block twice, not five times:
     1. p update + stencil + p·ap — first applies the previous
        iteration's [p = r + β p]: p's first and last elements at the top
        of the iteration, before the halo sends (so the halo carries the
        updated values), and each interior [p (i+1)] just before the
        stencil first reads it. Then it writes [ap = A p] and accumulates
        p·ap from the stored [ap] element; the first and last elements
        (the only ones that read a halo value) are peeled, so the
        interior loop tests no boundary. The first iteration has no β to
        apply, and the run's last β is never applied: p is not part of
        the result.
     2. x/r update + r·r — accumulates each new [r] element as it is stored.
   Each accumulator starts at [0.0] and adds in index order, exactly as the
   boxed [ddot] does (seeding it with the first product would differ for
   −0.0), and each deferred p element gets the boxed update's expression
   with the same r and β, so fusion changes no bit. The messages (halo,
   allreduce, allreduce) and the [Comm.work_flops] charges are the
   five-pass ones in the five-pass order, the p update's charged at the end
   of the iteration: the simulator still charges a dot product per pass,
   and makespans do not move. The boxed [cg_program] keeps the textbook
   five-pass form as the independent specification this body is checked
   against.

   Every element access is an unchecked [unsafe_get]/[unsafe_set] on a
   vector of length [ln], which one check before the loop guards. The
   halo reads stay checked: those slices come from another rank.

   Every accumulator is a float [ref] local to this function body and
   captured by no closure, so the compiler keeps it unboxed; a helper
   closure that captured one would box every add.

   Zero-copy discipline: the halo sends [edge_l] and [edge_r], two
   1-element slices allocated once per run, which ARE rewritten later —
   with p's new edges at the top of the next iteration, after both of this
   iteration's allreduces. The sender can finish the first of them only
   once the receiver has joined it, and the receiver joins only after
   reading its halo, so the write is causally after the read on every
   engine. *)

let cg_flat_program ?(tol = 1e-10) ?(max_iter = 10_000) (b : float array option) (comm : Comm.t)
    : result option =
  let me = Comm.rank comm in
  let bv = Scl_sim.Fvec.scatter comm ~root:0 (Option.map Scl.Flat.of_float_array b) in
  let n = Scl_sim.Fvec.total bv in
  let bl = Scl_sim.Fvec.local bv in
  let ln = Scl.Flat.length bl in
  let off = Scl_sim.Fvec.offset bv in
  let has_left = off > 0 and has_right = off + ln < n in
  let x = Array.make ln 0.0 in
  let r = Scl.Flat.to_float_array bl in
  let p = Array.copy r in
  (* [ap] is rewritten in place every iteration; it never leaves the rank. *)
  let ap = Array.make ln 0.0 in
  (* the halo's send buffers: p's first and last element *)
  let edge_l = Scl.Flat.create Scl.Flat.float64 1 in
  let edge_r = Scl.Flat.create Scl.Flat.float64 1 in
  (* guards every unchecked access below *)
  if Array.length x <> ln || Array.length r <> ln || Array.length p <> ln || Array.length ap <> ln
  then invalid_arg "Cg.cg_flat_program: vectors of unequal length";
  Comm.work_flops comm (2 * max 1 ln);
  let s = ref 0.0 in
  for i = 0 to ln - 1 do
    s := !s +. (Array.unsafe_get r i *. Array.unsafe_get r i)
  done;
  let rr = ref (Comm.allreduce comm ( +. ) !s) in
  let it = ref 0 in
  (* the previous iteration's β, applied to p in this iteration's pass 1 *)
  let beta = ref 0.0 in
  while sqrt !rr >= tol && !it < max_iter do
    let pending = !it > 0 in
    (* p's interior elements 1 .. hi wait for [p = r + β p] *)
    let hi = if pending then ln - 2 else 0 in
    (* halo exchange of p's updated edges; a missing neighbour reads as
       0.0 (Dirichlet) *)
    let hl = ref 0.0 and hr = ref 0.0 in
    if ln > 0 then begin
      let l = ln - 1 in
      if pending then begin
        Array.unsafe_set p 0 (Array.unsafe_get r 0 +. (!beta *. Array.unsafe_get p 0));
        if l > 0 then
          Array.unsafe_set p l (Array.unsafe_get r l +. (!beta *. Array.unsafe_get p l))
      end;
      if has_left then begin
        Scl.Flat.set edge_l 0 (Array.unsafe_get p 0);
        Comm.send_slice comm ~dest:(me - 1) edge_l
      end;
      if has_right then begin
        Scl.Flat.set edge_r 0 (Array.unsafe_get p l);
        Comm.send_slice comm ~dest:(me + 1) edge_r
      end;
      if has_left then hl := Scl.Flat.get (Comm.recv_slice comm ~src:(me - 1) () : Scl.Flat.float1) 0;
      if has_right then hr := Scl.Flat.get (Comm.recv_slice comm ~src:(me + 1) () : Scl.Flat.float1) 0
    end;
    (* pass 1: the rest of p = r + β p, ap = A p and p·ap *)
    Comm.work_flops comm (Scl_sim.Kernels.stencil_flops ln);
    Comm.work_flops comm (2 * max 1 ln);
    let pap = ref 0.0 in
    if ln > 0 then begin
      if hi >= 1 then
        Array.unsafe_set p 1 (Array.unsafe_get r 1 +. (!beta *. Array.unsafe_get p 1));
      let right = if ln > 1 then Array.unsafe_get p 1 else !hr in
      Array.unsafe_set ap 0 ((2.0 *. Array.unsafe_get p 0) -. !hl -. right);
      pap := !pap +. (Array.unsafe_get p 0 *. Array.unsafe_get ap 0);
      for i = 1 to ln - 2 do
        let j = i + 1 in
        if j <= hi then
          Array.unsafe_set p j (Array.unsafe_get r j +. (!beta *. Array.unsafe_get p j));
        let pi = Array.unsafe_get p i in
        let api = (2.0 *. pi) -. Array.unsafe_get p (i - 1) -. Array.unsafe_get p j in
        Array.unsafe_set ap i api;
        pap := !pap +. (pi *. api)
      done;
      if ln > 1 then begin
        let l = ln - 1 in
        Array.unsafe_set ap l ((2.0 *. Array.unsafe_get p l) -. Array.unsafe_get p (l - 1) -. !hr);
        pap := !pap +. (Array.unsafe_get p l *. Array.unsafe_get ap l)
      end
    end;
    let alpha = !rr /. Comm.allreduce comm ( +. ) !pap in
    (* pass 2: x += α p, r -= α ap, and r·r *)
    Comm.work_flops comm (4 * max 1 ln);
    Comm.work_flops comm (2 * max 1 ln);
    let rr_acc = ref 0.0 in
    for i = 0 to ln - 1 do
      Array.unsafe_set x i (Array.unsafe_get x i +. (alpha *. Array.unsafe_get p i));
      let ri = Array.unsafe_get r i -. (alpha *. Array.unsafe_get ap i) in
      Array.unsafe_set r i ri;
      rr_acc := !rr_acc +. (ri *. ri)
    done;
    let rr' = Comm.allreduce comm ( +. ) !rr_acc in
    beta := rr' /. !rr;
    (* the p update's charge, in the five-pass order; the next iteration's
       pass 1 applies it *)
    Comm.work_flops comm (2 * max 1 ln);
    rr := rr';
    incr it
  done;
  let gathered =
    Scl_sim.Fvec.gather ~root:0 (Scl_sim.Fvec.of_local comm (Scl.Flat.of_float_array x))
  in
  Option.map
    (fun solution ->
      {
        solution = Scl.Flat.to_float_array solution;
        iterations = !it;
        residual_norm = sqrt !rr;
      })
    gathered

let solve_flat backend = run_cg cg_flat_program backend

(* Pinned by the steady benchmark, which calls these exact names. *)
let solve_sim_flat = solve_flat (Backend.sim ())
let solve_multicore_flat ?domains = solve_flat (Backend.multicore ?domains ())

(* The residual check used by tests. *)
let residual_inf (x : float array) (b : float array) : float =
  let ax = laplacian_matvec x in
  let worst = ref 0.0 in
  Array.iteri (fun i v -> worst := Float.max !worst (Float.abs (v -. b.(i)))) ax;
  !worst
