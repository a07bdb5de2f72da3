(* Generated by Transform.Codegen from the skeleton pipeline:

     fold add . map square . rotate 3 . iter 2 [ map incr ] . fetch reverse

   Do not edit by hand: the test suite regenerates this file and
   asserts it is unchanged. *)

let run_pipeline (type s) (backend : s Machine.Backend.t) ~procs (input : int array) : int * s =
  Scl_sim.Spmd.run backend ~procs (fun comm ->
      let dv0 =
        Scl_sim.Dvec.scatter comm ~root:0
          (if Machine.Comm.rank comm = 0 then Some input else None)
      in
      let __n = Scl_sim.Dvec.total dv0 in
      let dv1 = Scl_sim.Dvec.fetch (fun i -> __n - 1 - i) dv0 in
      let dv2 =
        let __r = ref dv1 in
        for _ = 1 to 2 do
          let dv3 = Scl_sim.Dvec.map ~flops_per_elem:1 (fun x -> x + 1) !__r in
          __r := dv3
        done;
        !__r
      in
      let dv3 = Scl_sim.Dvec.rotate (3) dv2 in
      let dv4 = Scl_sim.Dvec.map ~flops_per_elem:1 (fun x -> x * x) dv3 in
      let dv5 = Scl_sim.Dvec.fold ~flops_per_elem:1 ( + ) dv4 in
      if Machine.Comm.rank comm = 0 then Some dv5 else None)
