(* The Section 4 transformations firing on real pipelines, with estimated
   and simulated costs before and after.

   Run with:  dune exec examples/transform_demo.exe *)

open Transform

let show title e =
  Format.printf "@.--- %s ---@." title;
  let r = Optimizer.optimize ~procs:16 ~n:65536 e in
  Format.printf "%a@." Optimizer.pp_report r;
  r

let () =
  Format.printf "=== Meaning-preserving transformations (paper Section 4) ===@.";

  (* Map fusion: two data-parallel passes become one. *)
  let _ =
    show "map fusion"
      (Ast.of_chain [ Ast.Map Fn.incr; Ast.Map Fn.double; Ast.Map Fn.square ])
  in

  (* Map distribution: a sequential foldr becomes fold . map. *)
  let _ = show "map distribution" (Ast.Foldr_compose (Fn.add, Fn.square)) in

  (* Communication algebra: two rotations collapse; fetches compose. *)
  let _ =
    show "communication algebra"
      (Ast.of_chain [ Ast.Rotate 3; Ast.Rotate 5; Ast.Fetch (Fn.i_shift 2); Ast.Fetch Fn.i_reverse ])
  in

  (* Flattening: nested data parallelism becomes flat. *)
  let _ =
    show "flattening"
      (Ast.of_chain [ Ast.Split 4; Ast.Map_nested (Ast.Map Fn.square); Ast.Combine ])
  in

  (* Ground truth: run the fusable pipeline on the simulated AP1000. *)
  Format.printf "@.--- simulator ground truth (P = 16, n = 65536) ---@.";
  let pipeline =
    Ast.of_chain
      [ Ast.Map Fn.incr; Ast.Map Fn.double; Ast.Map Fn.square; Ast.Rotate 3; Ast.Rotate 5 ]
  in
  let optimized, _ = Rewrite.normalize pipeline in
  let input = Value.of_int_array (Array.init 65536 (fun i -> i mod 97)) in
  let sim = Machine.Backend.sim () in
  let v1, s1 = Spmd_exec.run sim ~procs:16 pipeline input in
  let v2, s2 = Spmd_exec.run sim ~procs:16 optimized input in
  assert (Value.equal v1 v2);
  Format.printf "original  : %a@.            simulated %.6f s@." Ast.pp pipeline
    s1.Machine.Sim.makespan;
  Format.printf "optimized : %a@.            simulated %.6f s (x%.2f)@." Ast.pp optimized
    s2.Machine.Sim.makespan
    (s1.Machine.Sim.makespan /. s2.Machine.Sim.makespan);
  Format.printf "@.results agree on all 65536 elements; the speedup comes from removed@.";
  Format.printf "barriers, fused passes and merged communication steps.@."
