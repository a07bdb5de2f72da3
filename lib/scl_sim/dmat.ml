(* Block-distributed dense matrices on a q x q processor grid, with row and
   column communicators — the 2-D configuration skeletons (row_col_block
   distribution) realised on the simulated machine.  Row/column
   communicators are exactly the paper's nested ParArray groups. *)

open Machine

type t = {
  comm : Comm.t;  (* the q*q grid communicator; rank = i*q + j *)
  q : int;
  n : int;  (* global dimension; q divides n *)
  row_comm : Comm.t;  (* processors sharing my grid row *)
  col_comm : Comm.t;  (* processors sharing my grid column *)
  block : float array array;  (* my (n/q) x (n/q) block *)
}

let grid_coords t =
  let me = Comm.rank t.comm in
  (me / t.q, me mod t.q)

let block t = t.block
let grid t = t.q

let check_grid comm n =
  let p = Comm.size comm in
  let q = int_of_float (Float.round (sqrt (float_of_int p))) in
  if q * q <> p then invalid_arg "Dmat: communicator size must be a perfect square";
  if n mod q <> 0 then invalid_arg "Dmat: grid side must divide the matrix dimension";
  q

let make_comms comm q =
  let me = Comm.rank comm in
  let i = me / q and j = me mod q in
  let row_comm = Comm.split comm ~color:i ~key:j in
  let col_comm = Comm.split comm ~color:j ~key:i in
  (row_comm, col_comm)

(* Build a matrix whose entries are computed locally (no communication):
   every processor evaluates [f] on its own block's global coordinates. *)
let init comm ~n f =
  let q = check_grid comm n in
  let row_comm, col_comm = make_comms comm q in
  let me = Comm.rank comm in
  let bi = me / q and bj = me mod q in
  let bs = n / q in
  let block = Array.init bs (fun x -> Array.init bs (fun y -> f ((bi * bs) + x) ((bj * bs) + y))) in
  { comm; q; n; row_comm; col_comm; block }

(* Root-held matrix scattered block-wise. *)
let scatter comm ~root (m : float array array option) ~n =
  let q = check_grid comm n in
  let row_comm, col_comm = make_comms comm q in
  let bs = n / q in
  let blocks =
    Option.map
      (fun m ->
        Array.init (q * q) (fun r ->
            let bi = r / q and bj = r mod q in
            Array.init bs (fun x -> Array.init bs (fun y -> m.((bi * bs) + x).((bj * bs) + y)))))
      m
  in
  let block = Comm.scatter comm ~root blocks in
  { comm; q; n; row_comm; col_comm; block }

let gather ~root t : float array array option =
  match Comm.gather t.comm ~root t.block with
  | Some blocks ->
      let bs = t.n / t.q in
      Some
        (Array.init t.n (fun i ->
             Array.init t.n (fun j ->
                 blocks.(((i / bs) * t.q) + (j / bs)).(i mod bs).(j mod bs))))
  | None -> None

(* Replace the local block (pure local operation, no communication): used
   by iterative solvers that rebuild their block each sweep. *)
let with_block t block =
  let bs = t.n / t.q in
  if Array.length block <> bs || Array.exists (fun r -> Array.length r <> bs) block then
    invalid_arg "Dmat.with_block: block shape mismatch";
  { t with block }

(* Transpose: block (i,j) swaps with block (j,i), then each block is
   transposed locally. *)
let transpose t =
  let i, j = grid_coords t in
  let peer = (j * t.q) + i in
  let mine =
    if peer = Comm.rank t.comm then t.block
    else begin
      Comm.send t.comm ~dest:peer t.block;
      (Comm.recv t.comm ~src:peer () : float array array)
    end
  in
  let bs = t.n / t.q in
  Comm.work_flops t.comm (bs * bs);
  { t with block = Array.init bs (fun x -> Array.init bs (fun y -> mine.(y).(x))) }

(* --- halo exchange: the 2-D stencil communication pattern ----------------
   Each block trades its edge rows/columns with its four grid neighbours;
   blocks on the machine-grid boundary get [None] (the PDE boundary). *)

type halo = {
  north : float array option;  (* last row of the block above *)
  south : float array option;  (* first row of the block below *)
  west : float array option;  (* last column of the block left *)
  east : float array option;  (* first column of the block right *)
}

let halo_exchange t : halo =
  let q = t.q in
  let i, j = grid_coords t in
  let bs = t.n / q in
  let rank_of i j = (i * q) + j in
  let top_row = Array.copy t.block.(0) in
  let bottom_row = Array.copy t.block.(bs - 1) in
  let left_col = Array.init bs (fun x -> t.block.(x).(0)) in
  let right_col = Array.init bs (fun x -> t.block.(x).(bs - 1)) in
  (* Sends first (non-blocking in the simulator), then receives: no
     deadlock.  My top row is the south halo of the block above, etc. *)
  if i > 0 then Comm.send t.comm ~dest:(rank_of (i - 1) j) top_row;
  if i < q - 1 then Comm.send t.comm ~dest:(rank_of (i + 1) j) bottom_row;
  if j > 0 then Comm.send t.comm ~dest:(rank_of i (j - 1)) left_col;
  if j < q - 1 then Comm.send t.comm ~dest:(rank_of i (j + 1)) right_col;
  let north = if i > 0 then Some (Comm.recv t.comm ~src:(rank_of (i - 1) j) ()) else None in
  let south = if i < q - 1 then Some (Comm.recv t.comm ~src:(rank_of (i + 1) j) ()) else None in
  let west = if j > 0 then Some (Comm.recv t.comm ~src:(rank_of i (j - 1)) ()) else None in
  let east = if j < q - 1 then Some (Comm.recv t.comm ~src:(rank_of i (j + 1)) ()) else None in
  { north; south; west; east }

(* Local dense multiply (kept here so the dependency direction
   substrate -> algorithms stays acyclic). *)
let local_matmul (x : float array array) (y : float array array) : float array array =
  let n = Array.length x in
  let p = if n = 0 then 0 else Array.length y.(0) in
  let m = Array.length y in
  Array.init n (fun i ->
      Array.init p (fun j ->
          let s = ref 0.0 in
          for k = 0 to m - 1 do
            s := !s +. (x.(i).(k) *. y.(k).(j))
          done;
          !s))

(* SUMMA: C = A * B by q rounds of row/column broadcasts of blocks plus a
   local multiply-accumulate — the grid-group showcase. *)
let summa (a : t) (b : t) : t =
  if a.n <> b.n || a.q <> b.q then invalid_arg "Dmat.summa: shape mismatch";
  let q = a.q and n = a.n in
  let bs = n / q in
  let i, j = grid_coords a in
  let c = ref (Array.init bs (fun _ -> Array.make bs 0.0)) in
  for k = 0 to q - 1 do
    (* the column-k member of my row broadcasts its A block along the row *)
    let a_k =
      Comm.bcast a.row_comm ~root:k (if j = k then Some a.block else None)
    in
    (* the row-k member of my column broadcasts its B block down the column *)
    let b_k =
      Comm.bcast a.col_comm ~root:k (if i = k then Some b.block else None)
    in
    Comm.work_flops a.comm (Kernels.matmul_flops bs);
    let prod = local_matmul a_k b_k in
    c := Array.mapi (fun x row -> Array.mapi (fun y v -> v +. prod.(x).(y)) row) !c
  done;
  { a with block = !c }
