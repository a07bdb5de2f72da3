(* 2-D Poisson: -Δu = f on the unit square with zero Dirichlet boundary,
   solved by Jacobi relaxation — the two-dimensional counterpart of the
   Jacobi example, exercising the 2-D configuration skeletons: row_col_block
   partitioning, rotate_row / rotate_col halo movement on the host, and
   Dmat halo exchange on the simulated torus.

   The n x n interior grid has spacing h = 1/(n+1):
     u'[i][j] = (u[i-1][j] + u[i+1][j] + u[i][j-1] + u[i][j+1] + h^2 f) / 4 *)

open Scl

type result = { solution : float array array; iterations : int; final_diff : float }

let h2 n = 1.0 /. (float_of_int (n + 1) ** 2.0)

(* --- sequential reference --------------------------------------------------- *)

let solve_seq ?(tol = 1e-7) ?(max_iter = 50_000) (f : float array array) : result =
  let n = Array.length f in
  let hh = h2 n in
  let u = ref (Array.init n (fun _ -> Array.make n 0.0)) in
  let iterations = ref 0 and final_diff = ref Float.infinity in
  let continue_ = ref (n > 0) in
  while !continue_ do
    let old = !u in
    let get i j = if i < 0 || i >= n || j < 0 || j >= n then 0.0 else old.(i).(j) in
    let next =
      Array.init n (fun i ->
          Array.init n (fun j ->
              0.25 *. (get (i - 1) j +. get (i + 1) j +. get i (j - 1) +. get i (j + 1) +. (hh *. f.(i).(j)))))
    in
    let d = ref 0.0 in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        d := Float.max !d (Float.abs (next.(i).(j) -. old.(i).(j)))
      done
    done;
    u := next;
    incr iterations;
    final_diff := !d;
    if !d < tol || !iterations >= max_iter then continue_ := false
  done;
  { solution = !u; iterations = !iterations; final_diff = !final_diff }

(* --- host-SCL version: q x q blocks, halos via grid rotations ---------------- *)

(* Edge vectors of a block. *)
let top_edge b = Array.copy b.(0)
let bottom_edge b = Array.copy b.(Array.length b - 1)
let left_edge b = Array.init (Array.length b) (fun x -> b.(x).(0))
let right_edge b = Array.init (Array.length b) (fun x -> b.(x).(Array.length b.(x) - 1))

let solve_scl ?(exec = Exec.sequential) ?(grid = 2) ?(tol = 1e-7) ?(max_iter = 50_000)
    (f : float array array) : result =
  let n = Array.length f in
  if n = 0 then { solution = [||]; iterations = 0; final_diff = 0.0 }
  else begin
    if grid <= 0 || n mod grid <> 0 then
      invalid_arg "Heat2d.solve_scl: grid must divide the dimension";
    let q = grid in
    let hh = h2 n in
    let pat = Partition2.row_col_block q q in
    let fb = Partition2.apply pat (Par_array2.of_arrays f) in
    let fb = Par_array2.map ~exec Par_array2.to_arrays fb in
    let u0 =
      Par_array2.init ~rows:q ~cols:q (fun _ _ -> Array.init (n / q) (fun _ -> Array.make (n / q) 0.0))
    in
    let step (u, _d, it) =
      (* Halo movement: the grid-level rotations carry each block's edges to
         its neighbours; the torus wrap-around rows/columns are overridden by
         the Dirichlet boundary inside the update. *)
      let from_north = Par_array2.rotate_col ~exec (fun _ -> -1) (Par_array2.map ~exec bottom_edge u) in
      let from_south = Par_array2.rotate_col ~exec (fun _ -> 1) (Par_array2.map ~exec top_edge u) in
      let from_west = Par_array2.rotate_row ~exec (fun _ -> -1) (Par_array2.map ~exec right_edge u) in
      let from_east = Par_array2.rotate_row ~exec (fun _ -> 1) (Par_array2.map ~exec left_edge u) in
      let halos = Par_array2.zip (Par_array2.zip from_north from_south) (Par_array2.zip from_west from_east) in
      let zipped = Par_array2.zip (Par_array2.zip u fb) halos in
      let updated =
        Par_array2.imap ~exec
          (fun bi bj ((ub, fbb), ((hn, hs), (hw, he))) ->
            let bs = Array.length ub in
            Array.init bs (fun x ->
                Array.init bs (fun y ->
                    let north =
                      if x > 0 then ub.(x - 1).(y) else if bi = 0 then 0.0 else hn.(y)
                    in
                    let south =
                      if x < bs - 1 then ub.(x + 1).(y) else if bi = q - 1 then 0.0 else hs.(y)
                    in
                    let west =
                      if y > 0 then ub.(x).(y - 1) else if bj = 0 then 0.0 else hw.(x)
                    in
                    let east =
                      if y < bs - 1 then ub.(x).(y + 1) else if bj = q - 1 then 0.0 else he.(x)
                    in
                    0.25 *. (north +. south +. west +. east +. (hh *. fbb.(x).(y))))))
          zipped
      in
      let diffs =
        Par_array2.map ~exec
          (fun (ub, ub') ->
            let d = ref 0.0 in
            Array.iteri
              (fun x row -> Array.iteri (fun y v -> d := Float.max !d (Float.abs (v -. ub'.(x).(y)))) row)
              ub;
            !d)
          (Par_array2.zip u updated)
      in
      (updated, Par_array2.fold ~exec Float.max diffs, it + 1)
    in
    let u, final_diff, iterations =
      Computational.iter_until step Fun.id
        (fun (_, d, it) -> d < tol || it >= max_iter)
        (u0, Float.infinity, 0)
    in
    let blocks = Par_array2.map ~exec Par_array2.of_arrays u in
    { solution = Par_array2.to_arrays (Partition2.unapply pat blocks); iterations; final_diff }
  end

(* --- simulator version: Dmat halo exchange on the torus ----------------------- *)

open Machine

let heat_program ?(tol = 1e-7) ?(max_iter = 50_000) (f : float array array option) ~n
    (comm : Comm.t) : result option =
  let df = Scl_sim.Dmat.scatter comm ~root:0 f ~n in
  let hh = h2 n in
  let q = Scl_sim.Dmat.grid df in
  let bs = n / q in
  let fb = Scl_sim.Dmat.block df in
  let u0 = Scl_sim.Dmat.init comm ~n (fun _ _ -> 0.0) in
  let step _i u =
    let halo = Scl_sim.Dmat.halo_exchange u in
    let ub = Scl_sim.Dmat.block u in
    Comm.work_flops comm (Scl_sim.Kernels.stencil_flops (bs * bs));
    let next =
      Array.init bs (fun x ->
          Array.init bs (fun y ->
              let north =
                if x > 0 then ub.(x - 1).(y)
                else match halo.Scl_sim.Dmat.north with Some row -> row.(y) | None -> 0.0
              in
              let south =
                if x < bs - 1 then ub.(x + 1).(y)
                else match halo.Scl_sim.Dmat.south with Some row -> row.(y) | None -> 0.0
              in
              let west =
                if y > 0 then ub.(x).(y - 1)
                else match halo.Scl_sim.Dmat.west with Some col -> col.(x) | None -> 0.0
              in
              let east =
                if y < bs - 1 then ub.(x).(y + 1)
                else match halo.Scl_sim.Dmat.east with Some col -> col.(x) | None -> 0.0
              in
              0.25 *. (north +. south +. west +. east +. (hh *. fb.(x).(y)))))
    in
    let d = ref 0.0 in
    for x = 0 to bs - 1 do
      for y = 0 to bs - 1 do
        d := Float.max !d (Float.abs (next.(x).(y) -. ub.(x).(y)))
      done
    done;
    (Scl_sim.Dmat.with_block u next, !d)
  in
  let conv =
    if n = 0 then { Scl_sim.Control.state = u0; iterations = 0; final_residual = 0.0 }
    else Scl_sim.Control.iter_until_conv comm ~max_iter ~tol ~step u0
  in
  match Scl_sim.Dmat.gather ~root:0 conv.state with
  | Some solution ->
      Some { solution; iterations = conv.iterations; final_diff = conv.final_residual }
  | None -> None

let run_heat program backend ?tol ?max_iter ~procs (f : float array array) =
  let n = Array.length f in
  Array.iter (fun r -> if Array.length r <> n then invalid_arg "Heat2d: non-square grid") f;
  Scl_sim.Spmd.run backend ~procs (fun comm ->
      program ?tol ?max_iter (if Comm.rank comm = 0 then Some f else None) ~n comm)

let solve backend = run_heat heat_program backend

(* --- flat-tier version: row bands over an unboxed grid -------------------------
   The n x n grid flattened row-major into one [Scl.Flat] array, block-
   distributed by ROWS.  A band's halo is a whole contiguous row, so each
   sweep sends exactly ONE bulk message per neighbour (2 per member) —
   versus the Dmat rendering's 4 edge messages per block, two of which
   are strided column copies.  The stencil is a pure per-element function
   of the old grid with the same float expression order as [heat_program],
   and the residual is an exact [Float.max] — so solutions and iteration
   counts are bitwise-identical to the Dmat oracle whatever the
   decomposition. *)

let heat_flat_program ?(tol = 1e-7) ?(max_iter = 50_000) (f : float array array option) ~n
    (comm : Comm.t) : result option =
  let p = Comm.size comm in
  let me = Comm.rank comm in
  let b = Scl_sim.Dvec.block_bounds ~total:n ~parts:p in
  let r0 = b.(me) and r1 = b.(me + 1) in
  let nr = r1 - r0 in
  (* Scatter by rows: one bulk band per member (row-aligned, so the element
     scatter's geometry does not apply). *)
  let fl =
    if me = 0 then begin
      let f = match f with Some f -> f | None -> invalid_arg "Heat2d: root must supply f" in
      let whole = Scl.Flat.create Scl.Flat.float64 (n * n) in
      for i = 0 to n - 1 do
        let row = f.(i) in
        for j = 0 to n - 1 do
          Scl.Flat.set whole ((i * n) + j) row.(j)
        done
      done;
      for dest = 1 to p - 1 do
        Comm.send_slice comm ~dest
          (Scl.Flat.sub_view whole ~pos:(b.(dest) * n) ~len:((b.(dest + 1) - b.(dest)) * n))
      done;
      Scl.Flat.copy (Scl.Flat.sub_view whole ~pos:0 ~len:(b.(1) * n))
    end
    else Scl.Flat.copy (Comm.recv_slice comm ~src:0 () : Scl.Flat.float1)
  in
  let hh = h2 n in
  let has_up = r0 > 0 and has_down = r1 < n in
  let empty_row = Scl.Flat.create Scl.Flat.float64 0 in
  let step _i (u : Scl.Flat.float1) =
    let hn = ref empty_row and hs = ref empty_row in
    if nr > 0 then begin
      (* whole-row halos: one coalesced message per neighbour; [u] is
         never mutated, so the zero-copy windows stay valid *)
      if has_up then Comm.send_slice comm ~dest:(me - 1) (Scl.Flat.sub_view u ~pos:0 ~len:n);
      if has_down then
        Comm.send_slice comm ~dest:(me + 1) (Scl.Flat.sub_view u ~pos:((nr - 1) * n) ~len:n);
      if has_up then hn := Comm.recv_slice comm ~src:(me - 1) ();
      if has_down then hs := Comm.recv_slice comm ~src:(me + 1) ()
    end;
    Comm.work_flops comm (Scl_sim.Kernels.stencil_flops (nr * n));
    let next = Scl.Flat.create Scl.Flat.float64 (nr * n) in
    let d = ref 0.0 in
    for x = 0 to nr - 1 do
      for y = 0 to n - 1 do
        let north =
          if x > 0 then Scl.Flat.get u (((x - 1) * n) + y)
          else if has_up then Scl.Flat.get !hn y
          else 0.0
        in
        let south =
          if x < nr - 1 then Scl.Flat.get u (((x + 1) * n) + y)
          else if has_down then Scl.Flat.get !hs y
          else 0.0
        in
        let west = if y > 0 then Scl.Flat.get u ((x * n) + y - 1) else 0.0 in
        let east = if y < n - 1 then Scl.Flat.get u ((x * n) + y + 1) else 0.0 in
        let v =
          0.25 *. (north +. south +. west +. east +. (hh *. Scl.Flat.get fl ((x * n) + y)))
        in
        Scl.Flat.set next ((x * n) + y) v;
        d := Float.max !d (Float.abs (v -. Scl.Flat.get u ((x * n) + y)))
      done
    done;
    (next, !d)
  in
  let conv =
    if n = 0 then
      {
        Scl_sim.Control.state = Scl.Flat.create Scl.Flat.float64 0;
        iterations = 0;
        final_residual = 0.0;
      }
    else
      Scl_sim.Control.iter_until_conv comm ~max_iter ~tol ~step
        (Scl.Flat.make Scl.Flat.float64 (nr * n) 0.0)
  in
  match Comm.gather_slice comm ~root:0 conv.state with
  | Some whole ->
      Some
        {
          solution =
            Array.init n (fun i ->
                Scl.Flat.to_float_array (Scl.Flat.sub_view whole ~pos:(i * n) ~len:n));
          iterations = conv.iterations;
          final_diff = conv.final_residual;
        }
  | None -> None

let solve_flat backend = run_heat heat_flat_program backend

(* Manufactured solution used by the tests: f = 2 pi^2 sin(pi x) sin(pi y)
   gives u = sin(pi x) sin(pi y). *)
let manufactured_f n =
  let pi = Float.pi in
  Array.init n (fun i ->
      Array.init n (fun j ->
          let x = float_of_int (i + 1) /. float_of_int (n + 1) in
          let y = float_of_int (j + 1) /. float_of_int (n + 1) in
          2.0 *. pi *. pi *. sin (pi *. x) *. sin (pi *. y)))

let manufactured_u n i j =
  let pi = Float.pi in
  let x = float_of_int (i + 1) /. float_of_int (n + 1) in
  let y = float_of_int (j + 1) /. float_of_int (n + 1) in
  sin (pi *. x) *. sin (pi *. y)
