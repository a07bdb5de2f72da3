(* Jacobi relaxation for the 1-D Poisson problem -u'' = f with Dirichlet
   boundary values — the iterUntil skeleton's natural workload: iterate a
   data-parallel stencil until the update norm drops below a tolerance.

   Host rendering: chunked ParArray, halo exchange via the rotate skeleton,
   convergence via fold max, control flow via iter_until.
   SPMD rendering (any engine): block rows with neighbour messages and an
   allreduce of the residual, one program body over a boxed and a flat
   tier. *)

open Scl

type result = { solution : float array; iterations : int; final_diff : float }

let h2 n = 1.0 /. (float_of_int (n + 1) ** 2.0)

(* One sweep of a block [u] of boxed values, given the values just outside
   it ([hl], [hr]): the next block and the largest update.  The sequential
   reference, the host-SCL chunks and the boxed SPMD tier all use it. *)
let sweep ~hh ~f ~hl ~hr (u : float array) =
  let ln = Array.length u in
  let next =
    Array.init ln (fun j ->
        let lo = if j > 0 then u.(j - 1) else hl in
        let hi = if j < ln - 1 then u.(j + 1) else hr in
        0.5 *. (lo +. hi +. (hh *. f.(j))))
  in
  let d = ref 0.0 in
  for j = 0 to ln - 1 do
    d := Float.max !d (Float.abs (next.(j) -. u.(j)))
  done;
  (next, !d)

(* Sequential reference. *)
let solve_seq ?(tol = 1e-8) ?(max_iter = 100_000) (f : float array) ~(left : float)
    ~(right : float) : result =
  let n = Array.length f in
  let u = ref (Array.make n 0.0) in
  let hh = h2 n in
  let rec go it =
    if it >= max_iter then (it, 0.0)
    else begin
      let next, diff = sweep ~hh ~f ~hl:left ~hr:right !u in
      u := next;
      if diff < tol then (it + 1, diff) else go (it + 1)
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
    let step (u, _diff, it) =
      (* Halo exchange: each chunk needs the last element of its left
         neighbour and the first element of its right neighbour — two
         rotations of the boundary values. *)
      let lasts = Elementary.map ~exec (fun c -> c.(Array.length c - 1)) u in
      let firsts = Elementary.map ~exec (fun c -> c.(0)) u in
      let from_left = Communication.rotate ~exec (-1) lasts in
      let from_right = Communication.rotate ~exec 1 firsts in
      let halos = Config.align from_left from_right in
      let zipped = Config.align (Config.align u fs) halos in
      let swept =
        Elementary.imap ~exec
          (fun pi ((c, fc), (hl, hr)) ->
            let hl = if pi = 0 then left else hl in
            let hr = if pi = parts - 1 then right else hr in
            sweep ~hh ~f:fc ~hl ~hr c)
          zipped
      in
      let updated, diffs = Config.unalign swept in
      (updated, Elementary.fold ~exec Float.max diffs, it + 1)
    in
    let u, final_diff, iterations =
      Computational.iter_until step Fun.id
        (fun (_, diff, it) -> diff < tol || it >= max_iter)
        (u0, Float.infinity, 0)
    in
    { solution = Config.gather pat u; iterations; final_diff }
  end

(* --- SPMD version (any engine, either tier) ----------------------------------- *)

open Machine

(* One tier of the SPMD program: how a rank holds its block (['v]).  A
   tier is built per rank per run; [sweep] is the whole-block stencil
   kernel, so the per-element loop stays in each tier's own code. *)
type 'v tier = {
  scatter : float array option -> 'v * int * int;  (* local block, its offset, total *)
  length : 'v -> int;
  zeros : int -> 'v;
  send_edge : dest:int -> 'v -> int -> unit;  (* one element of a block, as a halo *)
  recv_edge : src:int -> float;
  sweep : hh:float -> f:'v -> hl:float -> hr:float -> 'v -> 'v * float;  (* next block, residual *)
  gather : 'v -> float array option;
}

(* One processor's SPMD program, written once for both tiers: block rows
   with neighbour halo messages and an allreduce of the residual, the
   same messages and flops charges whichever tier holds the block. *)
let jacobi_program (t : 'v tier) ?(tol = 1e-8) ?(max_iter = 100_000) (f : float array option)
    ~left ~right (comm : Comm.t) : result option =
  let me = Comm.rank comm in
  let floc, offset, n = t.scatter f in
  let hh = h2 n in
  let ln = t.length floc in
  (* Neighbours in block order, skipping ranks that own no elements. *)
  let has_left = offset > 0 in
  let has_right = offset + ln < n in
  (* One relaxation sweep: halo exchange, stencil update, local residual —
     the step function of the distributed iterUntil skeleton. *)
  let step _i u =
    let hl = ref left and hr = ref right in
    if ln > 0 then begin
      if has_left then t.send_edge ~dest:(me - 1) u 0;
      if has_right then t.send_edge ~dest:(me + 1) u (ln - 1);
      if has_left then hl := t.recv_edge ~src:(me - 1);
      if has_right then hr := t.recv_edge ~src:(me + 1)
    end;
    Comm.work_flops comm (Scl_sim.Kernels.stencil_flops ln);
    t.sweep ~hh ~f:floc ~hl:!hl ~hr:!hr u
  in
  let conv =
    if n = 0 then { Scl_sim.Control.state = t.zeros 0; iterations = 0; final_residual = 0.0 }
    else Scl_sim.Control.iter_until_conv comm ~max_iter ~tol ~step (t.zeros ln)
  in
  Option.map
    (fun solution ->
      { solution; iterations = conv.iterations; final_diff = conv.final_residual })
    (t.gather conv.state)

(* The boxed tier: [float array] blocks, marshalled halo messages. *)
let boxed_tier comm : float array tier =
  {
    scatter =
      (fun f ->
        let fv = Scl_sim.Dvec.scatter comm ~root:0 f in
        (Scl_sim.Dvec.local fv, Scl_sim.Dvec.offset fv, Scl_sim.Dvec.total fv));
    length = Array.length;
    zeros = (fun ln -> Array.make ln 0.0);
    send_edge = (fun ~dest u i -> Comm.send comm ~dest u.(i));
    recv_edge = (fun ~src -> Comm.recv comm ~src ());
    sweep;
    gather = (fun u -> Scl_sim.Dvec.gather ~root:0 (Scl_sim.Dvec.of_local comm u));
  }

(* The flat tier: unboxed [Scl.Flat] blocks and 1-element bulk-slice
   halos.  Its sweep computes every float as [sweep] does — same stencil
   order, same [Float.max] residual — so solutions and iteration counts
   are bitwise-identical to the boxed tier's on every engine. *)
let flat_tier comm : Flat.float1 tier =
  {
    scatter =
      (fun f ->
        let fv = Scl_sim.Fvec.scatter comm ~root:0 (Option.map Flat.of_float_array f) in
        (Scl_sim.Fvec.local fv, Scl_sim.Fvec.offset fv, Scl_sim.Fvec.total fv));
    length = Flat.length;
    zeros = (fun ln -> Flat.make Flat.float64 ln 0.0);
    (* [u] is never mutated (each sweep builds a fresh buffer), so the
       zero-copy window stays valid for the receiver's read *)
    send_edge = (fun ~dest u i -> Comm.send_slice comm ~dest (Flat.sub_view u ~pos:i ~len:1));
    recv_edge = (fun ~src -> Flat.get (Comm.recv_slice comm ~src () : Flat.float1) 0);
    sweep =
      (fun ~hh ~(f : Flat.float1) ~hl ~hr (u : Flat.float1) ->
        let ln = Flat.length u in
        (* a fresh buffer per sweep: [next] becomes the [u] whose windows
           the following sweep sends *)
        let next = Flat.create Flat.float64 ln in
        let d = ref 0.0 in
        for j = 0 to ln - 1 do
          let lo = if j > 0 then Flat.get u (j - 1) else hl in
          let hi = if j < ln - 1 then Flat.get u (j + 1) else hr in
          let v = 0.5 *. (lo +. hi +. (hh *. Flat.get f j)) in
          Flat.set next j v;
          d := Float.max !d (Float.abs (v -. Flat.get u j))
        done;
        (next, !d));
    gather =
      (fun u ->
        Option.map Flat.to_float_array
          (Scl_sim.Fvec.gather ~root:0 (Scl_sim.Fvec.of_local comm u)));
  }

let run_jacobi tier backend ?tol ?max_iter ~procs (f : float array) ~left ~right =
  Scl_sim.Spmd.run backend ~procs (fun comm ->
      let f = if Comm.rank comm = 0 then Some f else None in
      jacobi_program (tier comm) ?tol ?max_iter f ~left ~right comm)

let solve backend = run_jacobi boxed_tier backend
let solve_flat backend = run_jacobi flat_tier backend
