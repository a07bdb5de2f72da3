(* Line of sight — the classic scan application (Blelloch's motivating
   example for parallel prefix): an observer at the origin of a terrain
   profile sees point i iff the viewing angle to i exceeds every angle
   before it.  One exclusive max-scan of the angles answers all points at
   once. *)

open Scl

(* Viewing angle from the observer (index 0, at [observer_height]) to point
   i at terrain height h. *)
let angle ~observer_height i h =
  if i = 0 then Float.neg_infinity
  else atan2 (h -. observer_height) (float_of_int i)

(* Sequential reference. *)
let visible_seq ?(observer_height = 0.0) (terrain : float array) : bool array =
  let n = Array.length terrain in
  if n = 0 then [||]
  else begin
    let best = ref Float.neg_infinity in
    Array.init n (fun i ->
        if i = 0 then true
        else begin
          let a = angle ~observer_height i terrain.(i) in
          let v = a > !best in
          if a > !best then best := a;
          v
        end)
  end

(* Host-SCL: imap to angles, exclusive max-scan, pointwise comparison. *)
let visible_scl ?(exec = Exec.sequential) ?(observer_height = 0.0) (terrain : float array) :
    bool array =
  let n = Array.length terrain in
  if n = 0 then [||]
  else begin
    let angles =
      Elementary.imap ~exec (fun i h -> angle ~observer_height i h) (Par_array.of_array terrain)
    in
    let prefix = Elementary.scan_exclusive ~exec Float.max Float.neg_infinity angles in
    Par_array.to_array
      (Elementary.zip_with ~exec
         (fun a before -> before = Float.neg_infinity || a > before)
         angles prefix)
  end

(* Simulator: local angle computation, then an exclusive max-scan realised
   as a carry chain along the block order (each processor receives the max
   over everything to its left, applies it locally, and forwards its own
   running max). *)
open Machine

let los_program ?(observer_height = 0.0) (terrain : float array option) (comm : Comm.t) :
    bool array option =
  let me = Comm.rank comm and p = Comm.size comm in
  let dv = Scl_sim.Dvec.scatter comm ~root:0 terrain in
  let angles =
    Scl_sim.Dvec.imap ~flops_per_elem:8 (fun i h -> angle ~observer_height i h) dv
  in
  let local = Scl_sim.Dvec.local angles in
  let incoming : float =
    if me = 0 then Float.neg_infinity else Comm.recv comm ~src:(me - 1) ()
  in
  Comm.work_flops comm (2 * max 1 (Array.length local));
  let carry = ref incoming in
  let out =
    Array.mapi
      (fun j a ->
        let before = !carry in
        carry := Float.max before a;
        let global_i = Scl_sim.Dvec.offset dv + j in
        global_i = 0 || a > before)
      local
  in
  if me + 1 < p then Comm.send comm ~dest:(me + 1) !carry;
  Scl_sim.Dvec.gather ~root:0 (Scl_sim.Dvec.of_local comm out)

let visible backend ?(observer_height = 0.0) ~procs (terrain : float array) =
  Scl_sim.Spmd.run backend ~procs (fun comm ->
      los_program ~observer_height (if Comm.rank comm = 0 then Some terrain else None) comm)
