(* Traced copies of the library's SPMD program bodies.

   [Hyperquicksort] and [Cg] export their entry points, not their program
   bodies, so the traced run carries a copy of each body built only from
   public functions, with a span around every call into a layer:
   kernels ([Scl.Flat.Int], the [Scl.Flat] float loops) and [Comm]
   collectives. The engine underneath is [Tracer.wrap], so the fabric
   spans nest under the collective that caused them. Each copy must
   return exactly what the library entry point returns on the same input;
   the benchmark checks that on every traced job. *)

open Machine
module FI = Scl.Flat.Int

(* Copy of [Hyperquicksort.hqs_program_flatint]. *)
let hqs_flatint (t : Tracer.buf) (data : int array option) (comm : Comm.t) : int array option =
  let sp name f = Tracer.span t name f in
  let p = Comm.size comm in
  let d = Topology.log2_exact p in
  let dv = sp "comm.scatter" (fun () -> Scl_sim.Dvec.scatter comm ~root:0 data) in
  let local = ref (FI.of_int_array (Scl_sim.Dvec.local dv)) in
  sp "kernel.sort" (fun () -> FI.sort !local);
  Comm.work_flops comm (Scl_sim.Kernels.sort_flops (Scl.Flat.length !local));
  let c = ref comm in
  for _it = 0 to d - 1 do
    let gsz = Comm.size !c in
    let half = gsz / 2 in
    let me = Comm.rank !c in
    Comm.work_flops comm Scl_sim.Kernels.median_flops;
    let first_some a b = if a = None then b else a in
    let pivot = sp "comm.allreduce" (fun () -> Comm.allreduce !c first_some (FI.midvalue !local)) in
    (match pivot with
    | None -> ()
    | Some pivot ->
        Comm.work_flops comm (Scl_sim.Kernels.binary_search_flops (Scl.Flat.length !local));
        let lo, hi = sp "kernel.split" (fun () -> FI.split_at pivot !local) in
        let keep, give = if me < half then (lo, hi) else (hi, lo) in
        let partner = me lxor half in
        let (recvd : int array) =
          sp "comm.exchange" (fun () -> Comm.exchange !c ~partner (FI.to_int_array give))
        in
        Comm.work_flops comm
          (Scl_sim.Kernels.merge_flops (Scl.Flat.length keep + Array.length recvd));
        local := sp "kernel.merge" (fun () -> FI.merge keep (FI.of_int_array recvd)));
    c := sp "comm.split" (fun () -> Comm.split !c ~color:(if me < half then 0 else 1) ~key:me)
  done;
  let result = sp "comm.gather" (fun () -> Comm.gather comm ~root:0 (FI.to_int_array !local)) in
  Option.map (fun chunks -> Array.concat (Array.to_list chunks)) result

(* Copy of [Cg.cg_flat_program]. *)
let cg_flat (t : Tracer.buf) ~tol ~max_iter (b : float array option) (comm : Comm.t) :
    Algorithms.Cg.result option =
  let sp name f = Tracer.span t name f in
  let module F = Scl.Flat in
  let me = Comm.rank comm in
  let bv =
    sp "comm.scatter" (fun () -> Scl_sim.Fvec.scatter comm ~root:0 (Option.map F.of_float_array b))
  in
  let n = Scl_sim.Fvec.total bv in
  let bl = Scl_sim.Fvec.local bv in
  let ln = F.length bl in
  let off = Scl_sim.Fvec.offset bv in
  let has_left = off > 0 and has_right = off + ln < n in
  let ddot a b =
    Comm.work_flops comm (2 * max 1 ln);
    let s =
      sp "kernel.flat" (fun () ->
          let s = ref 0.0 in
          for i = 0 to ln - 1 do
            s := !s +. (F.get a i *. F.get b i)
          done;
          !s)
    in
    sp "comm.allreduce" (fun () -> Comm.allreduce comm ( +. ) s)
  in
  let matvec (p : F.float1) : F.float1 =
    let hl = ref 0.0 and hr = ref 0.0 in
    if ln > 0 then
      sp "comm.halo" (fun () ->
          if has_left then Comm.send_slice comm ~dest:(me - 1) (F.sub_view p ~pos:0 ~len:1);
          if has_right then Comm.send_slice comm ~dest:(me + 1) (F.sub_view p ~pos:(ln - 1) ~len:1);
          if has_left then hl := F.get (Comm.recv_slice comm ~src:(me - 1) ()) 0;
          if has_right then hr := F.get (Comm.recv_slice comm ~src:(me + 1) ()) 0);
    Comm.work_flops comm (Scl_sim.Kernels.stencil_flops ln);
    sp "kernel.flat" (fun () ->
        F.init F.float64 ln (fun i ->
            let left = if i > 0 then F.get p (i - 1) else if has_left then !hl else 0.0 in
            let right = if i < ln - 1 then F.get p (i + 1) else if has_right then !hr else 0.0 in
            (2.0 *. F.get p i) -. left -. right))
  in
  let x = F.make F.float64 ln 0.0 in
  let r = F.copy bl in
  let p = F.copy bl in
  let rr = ref (ddot r r) in
  let it = ref 0 in
  while sqrt !rr >= tol && !it < max_iter do
    let ap = matvec p in
    let alpha = !rr /. ddot p ap in
    Comm.work_flops comm (4 * max 1 ln);
    sp "kernel.flat" (fun () ->
        for i = 0 to ln - 1 do
          F.set x i (F.get x i +. (alpha *. F.get p i));
          F.set r i (F.get r i -. (alpha *. F.get ap i))
        done);
    let rr' = ddot r r in
    let beta = rr' /. !rr in
    Comm.work_flops comm (2 * max 1 ln);
    sp "kernel.flat" (fun () ->
        for i = 0 to ln - 1 do
          F.set p i (F.get r i +. (beta *. F.get p i))
        done);
    rr := rr';
    incr it
  done;
  let gathered =
    sp "comm.gather" (fun () -> Scl_sim.Fvec.gather ~root:0 (Scl_sim.Fvec.of_local comm x))
  in
  Option.map
    (fun solution ->
      { Algorithms.Cg.solution = F.to_float_array solution; iterations = !it; residual_norm = sqrt !rr })
    gathered

(* ------------------------------------------------------------- runners *)

(* One traced job: the value rank 0 produced, every rank's buffer, and
   the run's wall time plus the engine's own counters. *)
type 'a job = {
  value : 'a;
  bufs : Tracer.buf array;
  wall_ns : int;
  units : int;  (* domains or processes the ranks ran on *)
  mc_sleeps : int;
  spawn_ns : int;  (* mean over ranks: run call -> first instruction (procs only) *)
  reap_ns : int;  (* last rank's return -> run returning (procs only) *)
}

let multicore ~domains ~procs ~keep (program : Tracer.buf -> Comm.t -> 'a option) : 'a job =
  let bufs = Array.init procs Tracer.create in
  Array.iter (fun (b : Tracer.buf) -> b.keep <- keep) bufs;
  let result = Atomic.make None in
  let t0 = Obs.Clock.now_ns () in
  let stats =
    Multicore.run_each ~domains ~topology:(Scl_sim.Spmd.default_topology procs) ~procs
      (fun rank eng ->
        match Tracer.run_rank bufs.(rank) eng (program bufs.(rank)) with
        | Some v -> Atomic.set result (Some v)
        | None -> ())
  in
  let wall_ns = Obs.Clock.ns_since t0 in
  match Atomic.get result with
  | None -> failwith "traced multicore run: no rank produced a result"
  | Some value ->
      { value; bufs; wall_ns; units = stats.domains_used; mc_sleeps = stats.sleeps; spawn_ns = 0; reap_ns = 0 }

(* On processes each child keeps its own buffer; after its program
   returns, every rank ships its buffer to rank 0 over the untraced
   engine, and rank 0 returns them with its result over the verdict
   pipe. *)
let procs ~procs ~keep (program : Tracer.buf -> Comm.t -> 'a option) : 'a job =
  let t0 = Obs.Clock.now_ns () in
  let (value, bufs, ret0), _stats =
    Procs.run_collect ~topology:(Scl_sim.Spmd.default_topology procs) ~procs (fun eng ->
        let b = Tracer.create eng.Engine.rank in
        b.keep <- keep;
        let v = Tracer.run_rank b eng (program b) in
        match (Comm.gather (Comm.world eng) ~root:0 b, v) with
        | Some bufs, Some v -> Some (v, bufs, Obs.Clock.now_ns ())
        | _ -> None)
  in
  let t1 = Obs.Clock.now_ns () in
  let wall_ns = Int64.to_int (Int64.sub t1 t0) in
  let last = Array.fold_left (fun acc (b : Tracer.buf) -> max acc b.last_ns) ret0 bufs in
  let spawn =
    Array.fold_left (fun acc (b : Tracer.buf) -> acc + Int64.to_int (Int64.sub b.first_ns t0)) 0 bufs
  in
  {
    value;
    bufs;
    wall_ns;
    units = procs;
    mc_sleeps = 0;
    spawn_ns = spawn / Array.length bufs;
    reap_ns = Int64.to_int (Int64.sub t1 last);
  }
