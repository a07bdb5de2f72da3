(* Parallel histogram — the natural workload for the paper's irregular
   [send] skeleton: every value is routed to the processor owning its
   bucket (many-to-one communication), and each site reduces its arrivals
   locally.

   Host rendering: Communication.send over a ParArray of values.
   SPMD rendering (any engine): Dvec.send as one all-to-all of partial
   counts. *)

open Scl

let check_args ~buckets ~lo ~hi =
  if buckets <= 0 then invalid_arg "Histogram: buckets must be positive";
  if not (hi > lo) then invalid_arg "Histogram: need hi > lo"

(* Which bucket a value falls into; values outside [lo, hi) clamp to the
   end buckets. *)
let bucket_of ~buckets ~lo ~hi (x : float) : int =
  let f = (x -. lo) /. (hi -. lo) in
  let b = int_of_float (f *. float_of_int buckets) in
  max 0 (min (buckets - 1) b)

(* Sequential reference. *)
let histogram_seq ~buckets ~lo ~hi (xs : float array) : int array =
  check_args ~buckets ~lo ~hi;
  let out = Array.make buckets 0 in
  Array.iter (fun x ->
      let b = bucket_of ~buckets ~lo ~hi x in
      out.(b) <- out.(b) + 1)
    xs;
  out

(* --- host-SCL version: one virtual processor per bucket ------------------- *)

let histogram_scl ?(exec = Exec.sequential) ~buckets ~lo ~hi (xs : float array) : int array =
  check_args ~buckets ~lo ~hi;
  if Array.length xs = 0 then Array.make buckets 0
  else begin
    (* Pad the value array to the bucket count so indices line up: the send
       skeleton routes within one ParArray length. *)
    let n = max buckets (Array.length xs) in
    let padded = Par_array.init n (fun i -> if i < Array.length xs then Some xs.(i) else None) in
    let route k =
      match Par_array.get padded k with
      | Some x -> [ bucket_of ~buckets ~lo ~hi x ]
      | None -> []
    in
    let delivered = Communication.send ~exec route padded in
    let counts = Elementary.map ~exec Array.length delivered in
    Array.sub (Par_array.to_array counts) 0 buckets
  end

(* --- SPMD version (any engine) ---------------------------------------------- *)

open Machine

let histogram_program ~buckets ~lo ~hi (xs : float array option) (comm : Comm.t) :
    int array option =
  let p = Comm.size comm in
  let dv = Scl_sim.Dvec.scatter comm ~root:0 xs in
  (* Bucket ownership is block-distributed over the processors. *)
  let owner b = Scl_sim.Dvec.owner_of ~total:buckets ~parts:p b in
  let local = Scl_sim.Dvec.local dv in
  Comm.work_flops comm (3 * Array.length local);
  (* Count locally per bucket first (the standard combining optimisation),
     then route each partial count to the bucket's owner. *)
  let partial = Hashtbl.create 64 in
  Array.iter
    (fun x ->
      let b = bucket_of ~buckets ~lo ~hi x in
      Hashtbl.replace partial b (1 + Option.value ~default:0 (Hashtbl.find_opt partial b)))
    local;
  let outgoing = Array.make p [] in
  Hashtbl.iter (fun b c -> outgoing.(owner b) <- (b, c) :: outgoing.(owner b)) partial;
  let incoming = Comm.alltoall comm (Array.map Array.of_list outgoing) in
  let bounds = Scl_sim.Dvec.block_bounds ~total:buckets ~parts:p in
  let me = Comm.rank comm in
  let mine = Array.make (bounds.(me + 1) - bounds.(me)) 0 in
  Array.iter
    (Array.iter (fun (b, c) -> mine.(b - bounds.(me)) <- mine.(b - bounds.(me)) + c))
    incoming;
  Comm.work_flops comm (Array.length mine);
  Scl_sim.Dvec.gather ~root:0 (Scl_sim.Dvec.of_local comm mine)

let histogram backend ~procs ~buckets ~lo ~hi (xs : float array) =
  check_args ~buckets ~lo ~hi;
  Scl_sim.Spmd.run backend ~procs (fun comm ->
      histogram_program ~buckets ~lo ~hi (if Comm.rank comm = 0 then Some xs else None) comm)
