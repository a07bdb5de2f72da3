(* Jacobi relaxation for the 1-D Poisson problem -u'' = f with Dirichlet
   boundary values — the iterUntil skeleton's natural workload: iterate a
   data-parallel stencil until the update norm drops below a tolerance.

   Host rendering: chunked ParArray, halo exchange via the rotate skeleton,
   convergence via fold max, control flow via iter_until.
   SPMD rendering (any engine): block rows with neighbour messages and an
   allreduce of the residual. *)

open Scl

type result = { solution : float array; iterations : int; final_diff : float }

let h2 n = 1.0 /. (float_of_int (n + 1) ** 2.0)

(* Sequential reference. *)
let solve_seq ?(tol = 1e-8) ?(max_iter = 100_000) (f : float array) ~(left : float)
    ~(right : float) : result =
  let n = Array.length f in
  let u = ref (Array.make n 0.0) in
  let hh = h2 n in
  let rec go it =
    if it >= max_iter then (it, 0.0)
    else begin
      let old = !u in
      let next =
        Array.init n (fun j ->
            let lo = if j = 0 then left else old.(j - 1) in
            let hi = if j = n - 1 then right else old.(j + 1) in
            0.5 *. (lo +. hi +. (hh *. f.(j))))
      in
      let diff = ref 0.0 in
      for j = 0 to n - 1 do
        diff := Float.max !diff (Float.abs (next.(j) -. old.(j)))
      done;
      u := next;
      if !diff < tol then (it + 1, !diff) else go (it + 1)
    end
  in
  let iterations, final_diff = go 0 in
  { solution = !u; iterations; final_diff }

(* --- host-SCL version -------------------------------------------------------- *)

let solve_scl ?(exec = Exec.sequential) ?(parts = 4) ?(tol = 1e-8) ?(max_iter = 100_000)
    (f : float array) ~(left : float) ~(right : float) : result =
  let n = Array.length f in
  if n = 0 then { solution = [||]; iterations = 0; final_diff = 0.0 }
  else begin
    let parts = max 1 (min parts n) in
    let pat = Partition.Block parts in
    let hh = h2 n in
    let fs = Partition.apply pat f in
    let u0 = Partition.apply pat (Array.make n 0.0) in
    let step (u, _diff) =
      (* Halo exchange: each chunk needs the last element of its left
         neighbour and the first element of its right neighbour — two
         rotations of the boundary values. *)
      let lasts = Elementary.map ~exec (fun c -> c.(Array.length c - 1)) u in
      let firsts = Elementary.map ~exec (fun c -> c.(0)) u in
      let from_left = Communication.rotate ~exec (-1) lasts in
      let from_right = Communication.rotate ~exec 1 firsts in
      let halos = Config.align from_left from_right in
      let zipped = Config.align (Config.align u fs) halos in
      let updated =
        Elementary.imap ~exec
          (fun pi ((c, fc), (hl, hr)) ->
            let len = Array.length c in
            Array.init len (fun j ->
                let lo = if j > 0 then c.(j - 1) else if pi = 0 then left else hl in
                let hi =
                  if j < len - 1 then c.(j + 1) else if pi = parts - 1 then right else hr
                in
                0.5 *. (lo +. hi +. (hh *. fc.(j)))))
          zipped
      in
      let diffs =
        Elementary.zip_with ~exec
          (fun c c' ->
            let d = ref 0.0 in
            for j = 0 to Array.length c - 1 do
              d := Float.max !d (Float.abs (c.(j) -. c'.(j)))
            done;
            !d)
          u updated
      in
      (updated, Elementary.fold ~exec Float.max diffs)
    in
    let counted (u, diff, it) =
      let u', d = step (u, diff) in
      (u', d, it + 1)
    in
    let u, final_diff, iterations =
      Computational.iter_until counted Fun.id
        (fun (_, diff, it) -> diff < tol || it >= max_iter)
        (u0, Float.infinity, 0)
    in
    { solution = Config.gather pat u; iterations; final_diff }
  end

(* --- simulator version -------------------------------------------------------- *)

open Machine

let jacobi_program ?(tol = 1e-8) ?(max_iter = 100_000) (f : float array option) ~left ~right
    (comm : Comm.t) : result option =
  let p = Comm.size comm in
  let me = Comm.rank comm in
  let fv = Scl_sim.Dvec.scatter comm ~root:0 f in
  let n = Scl_sim.Dvec.total fv in
  let hh = h2 n in
  let floc = Scl_sim.Dvec.local fv in
  let ln = Array.length floc in
  (* Neighbours in block order, skipping ranks that own no elements. *)
  let has_left = Scl_sim.Dvec.offset fv > 0 in
  let has_right = Scl_sim.Dvec.offset fv + ln < n in
  (* One relaxation sweep: halo exchange, stencil update, local residual —
     the step function of the distributed iterUntil skeleton. *)
  let step _i (u : float array) =
    let hl = ref left and hr = ref right in
    if ln > 0 then begin
      if has_left then Comm.send comm ~dest:(me - 1) u.(0);
      if has_right then Comm.send comm ~dest:(me + 1) u.(ln - 1);
      if has_left then hl := Comm.recv comm ~src:(me - 1) ();
      if has_right then hr := Comm.recv comm ~src:(me + 1) ()
    end;
    Comm.work_flops comm (Scl_sim.Kernels.stencil_flops ln);
    let next =
      Array.init ln (fun j ->
          let lo = if j > 0 then u.(j - 1) else !hl in
          let hi = if j < ln - 1 then u.(j + 1) else !hr in
          0.5 *. (lo +. hi +. (hh *. floc.(j))))
    in
    let d = ref 0.0 in
    for j = 0 to ln - 1 do
      d := Float.max !d (Float.abs (next.(j) -. u.(j)))
    done;
    (next, !d)
  in
  let conv =
    if n = 0 then { Scl_sim.Control.state = [||]; iterations = 0; final_residual = 0.0 }
    else Scl_sim.Control.iter_until_conv comm ~max_iter ~tol ~step (Array.make ln 0.0)
  in
  ignore p;
  let gathered = Scl_sim.Dvec.gather ~root:0 (Scl_sim.Dvec.of_local comm conv.state) in
  Option.map
    (fun solution ->
      { solution; iterations = conv.iterations; final_diff = conv.final_residual })
    gathered

let run_jacobi program backend ?tol ?max_iter ~procs (f : float array) ~left ~right =
  Scl_sim.Spmd.run backend ~procs (fun comm ->
      program ?tol ?max_iter (if Comm.rank comm = 0 then Some f else None) ~left ~right comm)

let solve backend = run_jacobi jacobi_program backend

(* --- flat-tier version ---------------------------------------------------------
   The same SPMD program over unboxed [Scl.Flat] chunks: halos travel as
   1-element bulk slices (zero-copy windows on the multicore engine,
   8-byte priced messages on the simulator), and the chunk itself is
   GC-invisible Bigarray storage.  Every float expression mirrors
   [jacobi_program] exactly — same block geometry, same stencil order,
   same [Float.max] residual — so solutions and iteration counts are
   bitwise-identical to the boxed oracle on either engine. *)

let jacobi_flat_program ?(tol = 1e-8) ?(max_iter = 100_000) (f : float array option) ~left
    ~right (comm : Comm.t) : result option =
  let me = Comm.rank comm in
  let fv = Scl_sim.Fvec.scatter comm ~root:0 (Option.map Flat.of_float_array f) in
  let n = Scl_sim.Fvec.total fv in
  let hh = h2 n in
  let floc = Scl_sim.Fvec.local fv in
  let ln = Flat.length floc in
  let has_left = Scl_sim.Fvec.offset fv > 0 in
  let has_right = Scl_sim.Fvec.offset fv + ln < n in
  let step _i (u : Flat.float1) =
    let hl = ref left and hr = ref right in
    if ln > 0 then begin
      (* [u] is never mutated (each sweep builds a fresh buffer), so the
         zero-copy windows stay valid for the receiver's read *)
      if has_left then Comm.send_slice comm ~dest:(me - 1) (Flat.sub_view u ~pos:0 ~len:1);
      if has_right then
        Comm.send_slice comm ~dest:(me + 1) (Flat.sub_view u ~pos:(ln - 1) ~len:1);
      if has_left then hl := Flat.get (Comm.recv_slice comm ~src:(me - 1) () : Flat.float1) 0;
      if has_right then hr := Flat.get (Comm.recv_slice comm ~src:(me + 1) () : Flat.float1) 0
    end;
    Comm.work_flops comm (Scl_sim.Kernels.stencil_flops ln);
    (* a fresh buffer per sweep: [next] becomes the [u] whose windows the
       following sweep sends *)
    let next = Flat.create Flat.float64 ln in
    let d = ref 0.0 in
    for j = 0 to ln - 1 do
      let lo = if j > 0 then Flat.get u (j - 1) else !hl in
      let hi = if j < ln - 1 then Flat.get u (j + 1) else !hr in
      let v = 0.5 *. (lo +. hi +. (hh *. Flat.get floc j)) in
      Flat.set next j v;
      d := Float.max !d (Float.abs (v -. Flat.get u j))
    done;
    (next, !d)
  in
  let conv =
    if n = 0 then
      { Scl_sim.Control.state = Flat.create Flat.float64 0; iterations = 0; final_residual = 0.0 }
    else Scl_sim.Control.iter_until_conv comm ~max_iter ~tol ~step (Flat.make Flat.float64 ln 0.0)
  in
  let gathered = Scl_sim.Fvec.gather ~root:0 (Scl_sim.Fvec.of_local comm conv.state) in
  Option.map
    (fun solution ->
      {
        solution = Flat.to_float_array solution;
        iterations = conv.iterations;
        final_diff = conv.final_residual;
      })
    gathered

let solve_flat backend = run_jacobi jacobi_flat_program backend
