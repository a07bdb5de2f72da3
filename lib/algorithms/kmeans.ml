(* Lloyd's k-means in the plane — the farm + reduction workload: assignment
   is an embarrassingly parallel map with the centroids as the farm
   environment; the centroid update is an associative reduction of
   per-cluster (sum, count) accumulators. *)

open Scl

type point = { x : float; y : float }

type result = {
  centroids : point array;
  assignment : int array;
  iterations : int;
  converged : bool;
}

let dist2 a b =
  let dx = a.x -. b.x and dy = a.y -. b.y in
  (dx *. dx) +. (dy *. dy)

let nearest (centroids : point array) (p : point) : int =
  let best = ref 0 and bestd = ref (dist2 p centroids.(0)) in
  Array.iteri
    (fun k c ->
      let d = dist2 p c in
      if d < !bestd then begin
        best := k;
        bestd := d
      end)
    centroids;
  !best

(* Per-cluster accumulators; the combine is associative and commutative, so
   folds and allreduces apply. *)
type acc = { sx : float array; sy : float array; count : int array }

let acc_zero k = { sx = Array.make k 0.0; sy = Array.make k 0.0; count = Array.make k 0 }

let acc_add1 (a : acc) (p : point) (cluster : int) : unit =
  a.sx.(cluster) <- a.sx.(cluster) +. p.x;
  a.sy.(cluster) <- a.sy.(cluster) +. p.y;
  a.count.(cluster) <- a.count.(cluster) + 1

let acc_combine (a : acc) (b : acc) : acc =
  {
    sx = Array.map2 ( +. ) a.sx b.sx;
    sy = Array.map2 ( +. ) a.sy b.sy;
    count = Array.map2 ( + ) a.count b.count;
  }

(* New centroids; empty clusters keep their old centroid. *)
let new_centroids (old : point array) (a : acc) : point array =
  Array.mapi
    (fun k c ->
      if a.count.(k) = 0 then c
      else { x = a.sx.(k) /. float_of_int a.count.(k); y = a.sy.(k) /. float_of_int a.count.(k) })
    old

let moved old fresh =
  let worst = ref 0.0 in
  Array.iteri (fun k c -> worst := Float.max !worst (sqrt (dist2 c fresh.(k)))) old;
  !worst

let check_k k = if k <= 0 then invalid_arg "Kmeans: k must be positive"

(* --- sequential reference ----------------------------------------------------- *)

let run_seq ?(tol = 1e-9) ?(max_iter = 200) ~k (points : point array) ~(init : point array) :
    result =
  check_k k;
  if Array.length init <> k then invalid_arg "Kmeans: init must supply k centroids";
  let centroids = ref (Array.copy init) in
  let it = ref 0 and converged = ref false in
  while (not !converged) && !it < max_iter do
    let a = acc_zero k in
    Array.iter (fun p -> acc_add1 a p (nearest !centroids p)) points;
    let fresh = new_centroids !centroids a in
    converged := moved !centroids fresh < tol;
    centroids := fresh;
    incr it
  done;
  {
    centroids = !centroids;
    assignment = Array.map (nearest !centroids) points;
    iterations = !it;
    converged = !converged;
  }

(* --- host-SCL version: farm over point chunks, fold of accumulators ------------ *)

let run_scl ?(exec = Exec.sequential) ?(parts = 4) ?(tol = 1e-9) ?(max_iter = 200) ~k
    (points : point array) ~(init : point array) : result =
  check_k k;
  if Array.length init <> k then invalid_arg "Kmeans: init must supply k centroids";
  let chunks = Partition.apply (Partition.Block (max 1 parts)) points in
  let step (centroids, _, it) =
    (* farm: each chunk accumulates against the shared centroid environment *)
    let accs =
      Computational.farm ~exec
        (fun env chunk ->
          let a = acc_zero k in
          Array.iter (fun p -> acc_add1 a p (nearest env p)) chunk;
          a)
        centroids chunks
    in
    let total = Elementary.fold ~exec acc_combine accs in
    let fresh = new_centroids centroids total in
    (fresh, moved centroids fresh, it + 1)
  in
  let centroids, movement, iterations =
    Computational.iter_until step Fun.id
      (fun (_, m, it) -> m < tol || it >= max_iter)
      (Array.copy init, Float.infinity, 0)
  in
  {
    centroids;
    assignment = Array.map (nearest centroids) points;
    iterations;
    converged = movement < tol;
  }

(* --- SPMD version (any engine) ----------------------------------------------------- *)

open Machine

let kmeans_program ?(tol = 1e-9) ?(max_iter = 200) ~k (points : point array option)
    ~(init : point array) (comm : Comm.t) : result option =
  let dv = Scl_sim.Dvec.scatter comm ~root:0 points in
  let local = Scl_sim.Dvec.local dv in
  let step _i (centroids : point array) =
    Comm.work_flops comm (6 * k * max 1 (Array.length local));
    let a = acc_zero k in
    Array.iter (fun p -> acc_add1 a p (nearest centroids p)) local;
    let total = Comm.allreduce comm acc_combine a in
    let fresh = new_centroids centroids total in
    (fresh, moved centroids fresh)
  in
  let conv =
    Scl_sim.Control.iter_until_conv comm ~max_iter ~tol ~step (Array.copy init)
  in
  let centroids = conv.Scl_sim.Control.state in
  Comm.work_flops comm (6 * k * max 1 (Array.length local));
  let labels = Array.map (nearest centroids) local in
  match Scl_sim.Dvec.gather ~root:0 (Scl_sim.Dvec.of_local comm labels) with
  | Some assignment ->
      Some
        {
          centroids;
          assignment;
          iterations = conv.Scl_sim.Control.iterations;
          converged = conv.Scl_sim.Control.final_residual < tol;
        }
  | None -> None

let run backend ?(tol = 1e-9) ?(max_iter = 200) ~procs ~k (points : point array)
    ~(init : point array) =
  check_k k;
  if Array.length init <> k then invalid_arg "Kmeans: init must supply k centroids";
  Scl_sim.Spmd.run backend ~procs (fun comm ->
      kmeans_program ~tol ~max_iter ~k
        (if Comm.rank comm = 0 then Some points else None)
        ~init comm)

(* Test workload: k well-separated Gaussian-ish blobs. *)
let blobs ~seed ~k ~per_cluster : point array * point array =
  let rng = Runtime.Xoshiro.of_seed seed in
  let centres =
    Array.init k (fun i ->
        let angle = 2.0 *. Float.pi *. float_of_int i /. float_of_int k in
        { x = 10.0 *. cos angle; y = 10.0 *. sin angle })
  in
  let points =
    Array.concat
      (List.init k (fun i ->
           Array.init per_cluster (fun _ ->
               {
                 x = centres.(i).x +. Runtime.Xoshiro.float rng 1.0 -. 0.5;
                 y = centres.(i).y +. Runtime.Xoshiro.float rng 1.0 -. 0.5;
               })))
  in
  (points, centres)
