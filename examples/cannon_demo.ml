(* Cannon's matrix multiplication with the rotate_row / rotate_col
   communication skeletons — the workload the paper's 2-D rotations are
   designed for.

   Run with:  dune exec examples/cannon_demo.exe *)

let () =
  Format.printf "=== Cannon's algorithm via rotate_row / rotate_col ===@.@.";
  let n = 144 in
  let a = Algorithms.Cannon.random_matrix ~seed:7 n in
  let b = Algorithms.Cannon.random_matrix ~seed:8 n in
  let reference = Algorithms.Seq_kernels.matmul a b in
  let max_err c =
    let worst = ref 0.0 in
    Array.iteri
      (fun i row -> Array.iteri (fun j v -> worst := Float.max !worst (Float.abs (v -. reference.(i).(j)))) row)
      c;
    !worst
  in

  Format.printf "multiplying two %dx%d matrices on a qxq block grid...@.@." n n;
  List.iter
    (fun q ->
      let c = Algorithms.Cannon.multiply_scl ~grid:q a b in
      Format.printf "host SCL, grid %dx%d : max error vs sequential = %.3g@." q q (max_err c))
    [ 2; 3; 4 ];

  Format.printf "@.simulated AP1000 torus (the machine's native topology):@.";
  Format.printf "   grid   procs   time (s)   speedup@.";
  let t1 = ref 0.0 in
  List.iter
    (fun q ->
      let c, stats = Algorithms.Cannon.multiply (Machine.Backend.sim ()) ~grid:q a b in
      assert (max_err c < 1e-9);
      let t = stats.Machine.Sim.makespan in
      if q = 1 then t1 := t;
      Format.printf "  %2dx%-2d   %4d   %9.4f   %6.2f@." q q (q * q) t (!t1 /. t))
    [ 1; 2; 3; 4; 6 ];
  Format.printf "@.each round multiplies local blocks and rotates A left / B up by one@.";
  Format.printf "grid position - single-hop neighbour traffic on the torus.@."
