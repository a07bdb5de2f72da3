(* Direct-summation N-body step — the classic farm workload: every body's
   force evaluation is an independent job whose shared environment is the
   whole body set (the paper's farm "environment" argument, provided by the
   all_to_all / brdcast configuration skeletons).

   Host rendering: farm over bodies with the body array as environment.
   SPMD rendering (any engine): allgather of bodies, local force loops. *)

open Scl

type body = { px : float; py : float; pz : float; mass : float }
type accel = { ax : float; ay : float; az : float }

let softening2 = 1e-6

let pairwise (b : body) (other : body) : accel =
  let dx = other.px -. b.px and dy = other.py -. b.py and dz = other.pz -. b.pz in
  let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) +. softening2 in
  let inv = other.mass /. (r2 *. sqrt r2) in
  { ax = dx *. inv; ay = dy *. inv; az = dz *. inv }

let accumulate (bodies : body array) (b : body) : accel =
  Array.fold_left
    (fun acc other ->
      if other == b then acc
      else begin
        let a = pairwise b other in
        { ax = acc.ax +. a.ax; ay = acc.ay +. a.ay; az = acc.az +. a.az }
      end)
    { ax = 0.0; ay = 0.0; az = 0.0 }
    bodies

(* Sequential reference. *)
let accelerations_seq (bodies : body array) : accel array =
  Array.map (accumulate bodies) bodies

(* Host-SCL: farm with the body set as the shared environment. *)
let accelerations_scl ?(exec = Exec.sequential) (bodies : body array) : accel array =
  Par_array.to_array
    (Computational.farm ~exec accumulate bodies (Par_array.of_array bodies))

(* Work-stealing farm: irregularity-tolerant variant. *)
let accelerations_pool pool (bodies : body array) : accel array =
  Par_array.to_array
    (Computational.farm_dynamic pool accumulate bodies (Par_array.of_array bodies))

(* --- SPMD version (any engine) --------------------------------------------- *)

open Machine

let flops_per_interaction = 20

let nbody_program (bodies : body array option) (comm : Comm.t) : accel array option =
  let dv = Scl_sim.Dvec.scatter comm ~root:0 bodies in
  (* environment: every processor needs all bodies (brdcast/allgather). *)
  let all = Scl_sim.Dvec.allgather dv in
  let local = Scl_sim.Dvec.local dv in
  Comm.work_flops comm (flops_per_interaction * Array.length local * Array.length all);
  let acc = Array.map (accumulate all) local in
  Scl_sim.Dvec.gather ~root:0 (Scl_sim.Dvec.of_local comm acc)

let accelerations backend ~procs (bodies : body array) =
  Scl_sim.Spmd.run backend ~procs (fun comm ->
      nbody_program (if Comm.rank comm = 0 then Some bodies else None) comm)

let random_bodies ~seed n : body array =
  let rng = Runtime.Xoshiro.of_seed seed in
  Array.init n (fun _ ->
      {
        px = Runtime.Xoshiro.float rng 2.0 -. 1.0;
        py = Runtime.Xoshiro.float rng 2.0 -. 1.0;
        pz = Runtime.Xoshiro.float rng 2.0 -. 1.0;
        mass = 0.1 +. Runtime.Xoshiro.float rng 1.0;
      })

let accel_close (a : accel array) (b : accel array) ~eps =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
         Float.abs (x.ax -. y.ax) < eps
         && Float.abs (x.ay -. y.ay) < eps
         && Float.abs (x.az -. y.az) < eps)
       a b
