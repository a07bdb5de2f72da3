(* Jacobi relaxation driven by the iterUntil skeleton: iterate a
   data-parallel stencil until convergence.

   Run with:  dune exec examples/jacobi_demo.exe *)

let () =
  Format.printf "=== Jacobi relaxation with iterUntil (1-D Poisson) ===@.@.";
  let n = 200 in
  (* -u'' = f with u(0) = 0, u(1) = 0 and f = pi^2 sin(pi x):
     exact solution u(x) = sin(pi x). *)
  let pi = Float.pi in
  let f =
    Array.init n (fun j ->
        let x = float_of_int (j + 1) /. float_of_int (n + 1) in
        pi *. pi *. sin (pi *. x))
  in
  let exact j = sin (pi *. (float_of_int (j + 1) /. float_of_int (n + 1))) in

  let report name (r : Algorithms.Jacobi.result) =
    let err = ref 0.0 in
    Array.iteri (fun j v -> err := Float.max !err (Float.abs (v -. exact j))) r.solution;
    Format.printf "%-22s: %6d iterations, final diff %.2e, max error vs sin(pi x) = %.2e@." name
      r.iterations r.final_diff !err
  in

  report "sequential reference" (Algorithms.Jacobi.solve_seq ~tol:1e-9 f ~left:0.0 ~right:0.0);
  report "host SCL (4 chunks)"
    (Algorithms.Jacobi.solve_scl ~parts:4 ~tol:1e-9 f ~left:0.0 ~right:0.0);

  Format.printf "@.simulated AP1000 (halo exchange per sweep + allreduce of the norm):@.";
  Format.printf "   P   time (s)   iterations@.";
  List.iter
    (fun p ->
      let r, stats =
        Algorithms.Jacobi.solve (Machine.Backend.sim ()) ~procs:p ~tol:1e-6 f ~left:0.0 ~right:0.0
      in
      Format.printf "  %2d   %8.3f   %d@." p stats.Machine.Sim.makespan r.iterations)
    [ 1; 2; 4; 8 ];
  Format.printf "@.(tiny per-sweep work against a per-sweep allreduce: the example@.";
  Format.printf " where communication latency dominates - the opposite regime from@.";
  Format.printf " hyperquicksort, and a classic skeleton-composition cautionary tale.)@."
