(* Cannon's matrix-multiplication algorithm — the classic workload for the
   paper's rotate_row / rotate_col communication skeletons: an n x n
   multiply on a q x q grid of blocks, with an initial skew and q
   shift-multiply-accumulate rounds.

   Host rendering: Par_array2 of blocks + rotate_row/rotate_col.
   SPMD rendering (any engine): q x q processors on a torus (the AP1000's
   T-net shape), shifting blocks to grid neighbours each round. *)

open Scl

type block = float array array

let block_add (x : block) (y : block) : block =
  Array.mapi (fun i row -> Array.mapi (fun j v -> v +. y.(i).(j)) row) x

let zero_block n : block = Array.init n (fun _ -> Array.make n 0.0)

let check_square_divisible name a grid =
  let n = Array.length a in
  Array.iter (fun r -> if Array.length r <> n then invalid_arg (name ^ ": non-square matrix")) a;
  if grid <= 0 then invalid_arg (name ^ ": grid must be positive");
  if n mod grid <> 0 then invalid_arg (name ^ ": grid must divide the matrix dimension");
  n

let check_operands name ~grid a b =
  let n = check_square_divisible name a grid in
  if check_square_divisible name b grid <> n then invalid_arg (name ^ ": dimension mismatch");
  n

(* Cut an n x n matrix into a q x q Par_array2 of dense blocks. *)
let to_blocks q (m : float array array) : block Par_array2.t =
  let n = Array.length m in
  let bs = n / q in
  Par_array2.init ~rows:q ~cols:q (fun bi bj ->
      Array.init bs (fun i -> Array.init bs (fun j -> m.((bi * bs) + i).((bj * bs) + j))))

let of_blocks (blocks : block Par_array2.t) : float array array =
  let q = Par_array2.rows blocks in
  if q = 0 then [||]
  else begin
    let bs = Array.length (Par_array2.get blocks 0 0) in
    Array.init (q * bs) (fun i ->
        Array.init (q * bs) (fun j -> (Par_array2.get blocks (i / bs) (j / bs)).(i mod bs).(j mod bs)))
  end

(* --- host-SCL version ------------------------------------------------------ *)

let multiply_scl ?(exec = Exec.sequential) ~grid (a : float array array) (b : float array array)
    : float array array =
  let n = check_operands "Cannon.multiply_scl" ~grid a b in
  if n = 0 then [||]
  else begin
    let q = grid in
    (* Initial skew: row i of A left by i, column j of B up by j. *)
    let ab = Par_array2.rotate_row ~exec (fun i -> i) (to_blocks q a) in
    let bb = Par_array2.rotate_col ~exec (fun j -> j) (to_blocks q b) in
    let cb = Par_array2.init ~rows:q ~cols:q (fun _ _ -> zero_block (n / q)) in
    let step _ (ab, bb, cb) =
      let prod =
        Par_array2.map ~exec (fun (x, y) -> Seq_kernels.matmul x y) (Par_array2.zip ab bb)
      in
      let cb = Par_array2.map ~exec (fun (c, p) -> block_add c p) (Par_array2.zip cb prod) in
      ( Par_array2.rotate_row ~exec (fun _ -> 1) ab,
        Par_array2.rotate_col ~exec (fun _ -> 1) bb,
        cb )
    in
    let _, _, cb = Computational.iter_for q step (ab, bb, cb) in
    of_blocks cb
  end

(* --- SPMD version ------------------------------------------------------------- *)

open Machine

let cannon_program ~n ~q (ab : block option) (bb : block option) (comm : Comm.t) :
    float array array option =
  let me = Comm.rank comm in
  let bi = me / q and bj = me mod q in
  let bs = n / q in
  let rank_of i j = ((((i mod q) + q) mod q) * q) + (((j mod q) + q) mod q) in
  (* Root scatters the blocks, already skewed. *)
  let blocks_for m skew_rows =
    Array.init (q * q) (fun r ->
        let i = r / q and j = r mod q in
        (* the block that processor (i,j) holds after the skew *)
        let src_j = if skew_rows then (j + i) mod q else j in
        let src_i = if skew_rows then i else (i + j) mod q in
        Array.init bs (fun x -> Array.init bs (fun y -> m.((src_i * bs) + x).((src_j * bs) + y))))
  in
  let a_mine =
    Comm.scatter comm ~root:0 (Option.map (fun m -> blocks_for m true) ab) |> ref
  in
  let b_mine =
    Comm.scatter comm ~root:0 (Option.map (fun m -> blocks_for m false) bb) |> ref
  in
  let c_mine = ref (zero_block bs) in
  for _round = 0 to q - 1 do
    Comm.work_flops comm (Scl_sim.Kernels.matmul_flops bs);
    c_mine := block_add !c_mine (Seq_kernels.matmul !a_mine !b_mine);
    if q > 1 then begin
      (* Shift A left along the row, B up along the column: torus
         neighbours, so each transfer is one hop.  User tags keep the two
         concurrent streams apart. *)
      Comm.send comm ~dest:(rank_of bi (bj - 1)) ~tag:101 !a_mine;
      Comm.send comm ~dest:(rank_of (bi - 1) bj) ~tag:102 !b_mine;
      a_mine := Comm.recv comm ~src:(rank_of bi (bj + 1)) ~tag:101 ();
      b_mine := Comm.recv comm ~src:(rank_of (bi + 1) bj) ~tag:102 ()
    end
  done;
  match Comm.gather comm ~root:0 !c_mine with
  | Some blocks ->
      let pa =
        Par_array2.init ~rows:q ~cols:q (fun i j -> blocks.((i * q) + j))
      in
      Some (of_blocks pa)
  | None -> None

(* On a q x q torus, so on the simulator each shift is one hop. *)
let multiply backend ~grid (a : float array array) (b : float array array) =
  let n = check_operands "Cannon.multiply" ~grid a b in
  let q = grid in
  Scl_sim.Spmd.run backend ~topology:(Topology.Torus2d (q, q)) ~procs:(q * q) (fun comm ->
      let root = Comm.rank comm = 0 in
      cannon_program ~n ~q (if root then Some a else None) (if root then Some b else None) comm)

let random_matrix ~seed n =
  let rng = Runtime.Xoshiro.of_seed seed in
  Array.init n (fun _ -> Array.init n (fun _ -> Runtime.Xoshiro.float rng 2.0 -. 1.0))
