(* Conjugate gradients for the 1-D Laplacian system A x = b
   (A = tridiag(-1, 2, -1), symmetric positive definite) — the iterative
   solver whose skeleton mix is the complement of Jacobi's: every iteration
   needs two global reductions (dot products = fold) plus a neighbour
   stencil (matvec), making it the classic latency-versus-reduction
   workload. *)

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
   The same distributed CG over unboxed [Scl.Flat] chunks, with the halo
   endpoints of the direction vector travelling as 1-element bulk slices.
   Identical block geometry, local summation order, and allreduce shape as
   [cg_program], so every dot product — and hence every iterate — is
   bitwise-identical to the boxed oracle at the same [procs].

   Fused passes: the paper's fold/map fusion (fold f ∘ map g = one
   traversal) applied to each dot product and the loop that writes its
   vector. An iteration walks the local block three times, not five:
     1. stencil + p·ap — writes [ap = A p] and accumulates p·ap from the
        stored [ap] element; the first and last elements (the only ones
        that read a halo value) are peeled, so the interior loop tests no
        boundary;
     2. x/r update + r·r — accumulates each new [r] element as it is stored;
     3. p update, [p = r + β p].
   Each accumulator starts at [0.0] and adds in index order, exactly as the
   boxed [ddot] does (seeding it with the first product would differ for
   −0.0), so fusion changes no bit. The messages (halo, allreduce,
   allreduce) and the [Comm.work_flops] charges are the five-pass ones in
   the five-pass order: the simulator still charges a dot product per pass,
   and makespans do not move. The boxed [cg_program] keeps the textbook
   five-pass form as the independent specification this body is checked
   against.

   Every accumulator is a float [ref] local to this function body and
   captured by no closure, so the compiler keeps it unboxed; a helper
   closure that captured one would box every add.

   Zero-copy discipline: the halo sends windows of [p], which IS mutated
   later in the iteration — but only after the p·ap allreduce, which the
   receiver can only complete after reading its halo, so the mutation is
   causally after the read on both engines. *)

let cg_flat_program ?(tol = 1e-10) ?(max_iter = 10_000) (b : float array option) (comm : Comm.t)
    : result option =
  let me = Comm.rank comm in
  let bv = Scl_sim.Fvec.scatter comm ~root:0 (Option.map Scl.Flat.of_float_array b) in
  let n = Scl_sim.Fvec.total bv in
  let bl = Scl_sim.Fvec.local bv in
  let ln = Scl.Flat.length bl in
  let off = Scl_sim.Fvec.offset bv in
  let has_left = off > 0 and has_right = off + ln < n in
  let x = Scl.Flat.make Scl.Flat.float64 ln 0.0 in
  let r = Scl.Flat.copy bl in
  let p = Scl.Flat.copy bl in
  (* [ap] is rewritten in place every iteration; it never leaves the rank. *)
  let ap = Scl.Flat.create Scl.Flat.float64 ln in
  Comm.work_flops comm (2 * max 1 ln);
  let s = ref 0.0 in
  for i = 0 to ln - 1 do
    s := !s +. (Scl.Flat.get r i *. Scl.Flat.get r i)
  done;
  let rr = ref (Comm.allreduce comm ( +. ) !s) in
  let it = ref 0 in
  while sqrt !rr >= tol && !it < max_iter do
    (* halo exchange; a missing neighbour reads as 0.0 (Dirichlet) *)
    let hl = ref 0.0 and hr = ref 0.0 in
    if ln > 0 then begin
      if has_left then Comm.send_slice comm ~dest:(me - 1) (Scl.Flat.sub_view p ~pos:0 ~len:1);
      if has_right then
        Comm.send_slice comm ~dest:(me + 1) (Scl.Flat.sub_view p ~pos:(ln - 1) ~len:1);
      if has_left then hl := Scl.Flat.get (Comm.recv_slice comm ~src:(me - 1) () : Scl.Flat.float1) 0;
      if has_right then hr := Scl.Flat.get (Comm.recv_slice comm ~src:(me + 1) () : Scl.Flat.float1) 0
    end;
    (* pass 1: ap = A p and p·ap *)
    Comm.work_flops comm (Scl_sim.Kernels.stencil_flops ln);
    Comm.work_flops comm (2 * max 1 ln);
    let pap = ref 0.0 in
    if ln > 0 then begin
      let right = if ln > 1 then Scl.Flat.get p 1 else !hr in
      Scl.Flat.set ap 0 ((2.0 *. Scl.Flat.get p 0) -. !hl -. right);
      pap := !pap +. (Scl.Flat.get p 0 *. Scl.Flat.get ap 0);
      for i = 1 to ln - 2 do
        let pi = Scl.Flat.get p i in
        let api = (2.0 *. pi) -. Scl.Flat.get p (i - 1) -. Scl.Flat.get p (i + 1) in
        Scl.Flat.set ap i api;
        pap := !pap +. (pi *. api)
      done;
      if ln > 1 then begin
        let l = ln - 1 in
        Scl.Flat.set ap l ((2.0 *. Scl.Flat.get p l) -. Scl.Flat.get p (l - 1) -. !hr);
        pap := !pap +. (Scl.Flat.get p l *. Scl.Flat.get ap l)
      end
    end;
    let alpha = !rr /. Comm.allreduce comm ( +. ) !pap in
    (* pass 2: x += α p, r -= α ap, and r·r *)
    Comm.work_flops comm (4 * max 1 ln);
    Comm.work_flops comm (2 * max 1 ln);
    let rr_acc = ref 0.0 in
    for i = 0 to ln - 1 do
      Scl.Flat.set x i (Scl.Flat.get x i +. (alpha *. Scl.Flat.get p i));
      let ri = Scl.Flat.get r i -. (alpha *. Scl.Flat.get ap i) in
      Scl.Flat.set r i ri;
      rr_acc := !rr_acc +. (ri *. ri)
    done;
    let rr' = Comm.allreduce comm ( +. ) !rr_acc in
    let beta = rr' /. !rr in
    (* pass 3: p = r + β p *)
    Comm.work_flops comm (2 * max 1 ln);
    for i = 0 to ln - 1 do
      Scl.Flat.set p i (Scl.Flat.get r i +. (beta *. Scl.Flat.get p i))
    done;
    rr := rr';
    incr it
  done;
  let gathered = Scl_sim.Fvec.gather ~root:0 (Scl_sim.Fvec.of_local comm x) in
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
