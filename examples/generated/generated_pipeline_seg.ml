(* Generated by Transform.Codegen from the skeleton pipeline:

     fold add . combine . mapn [ map square . map incr ] . split 4

   Do not edit by hand: the test suite regenerates this file and
   asserts it is unchanged. *)

let run_pipeline_seg (type s) (backend : s Machine.Backend.t) ~procs (input : int array) : int * s =
  Scl_sim.Spmd.run backend ~procs (fun comm ->
      let dv0 =
        Scl_sim.Dvec.scatter comm ~root:0
          (if Machine.Comm.rank comm = 0 then Some input else None)
      in
      (* split 4: enter the segmented region — block bounds are static, the payload stays flat *)
      (* mapn of maps: the segmented map is the flat map (flattening rule) *)
      let dv1 = Scl_sim.Dvec.map ~flops_per_elem:1 (fun x -> x + 1) dv0 in
      let dv2 = Scl_sim.Dvec.map ~flops_per_elem:1 (fun x -> x * x) dv1 in
      (* combine: leave the segmented region — the flat payload is already the combined array *)
      let dv3 = Scl_sim.Dvec.fold ~flops_per_elem:1 ( + ) dv2 in
      if Machine.Comm.rank comm = 0 then Some dv3 else None)
