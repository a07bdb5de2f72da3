(* The paper's Section 3 linear solver: Gauss–Jordan elimination with
   partial pivoting, columns distributed, written with iterFor +
   applybrdcast PARTIALPIVOT + map UPDATE.

   Run with:  dune exec examples/gauss_solver.exe *)

let () =
  Format.printf "=== Parallel Gauss-Jordan linear solver (paper Section 3) ===@.@.";
  let n = 128 in
  let a, b = Algorithms.Gauss.random_system ~seed:42 n in
  Format.printf "solving a dense %dx%d system A x = b...@.@." n n;

  (* Host-SCL version (sequential backend = reference semantics). *)
  let x = Algorithms.Gauss.solve_scl ~parts:8 a b in
  Format.printf "host SCL version   : max residual |Ax - b| = %.3g@."
    (Algorithms.Seq_kernels.residual a x b);

  (* The same skeleton program on the multicore pool. *)
  let pool = Runtime.Pool.create ~num_domains:3 () in
  Fun.protect
    ~finally:(fun () -> Runtime.Pool.teardown pool)
    (fun () ->
      let exec = Scl.Exec.on_pool pool in
      let xp = Algorithms.Gauss.solve_scl ~exec ~parts:8 a b in
      Format.printf "pool-backed version: max residual |Ax - b| = %.3g@."
        (Algorithms.Seq_kernels.residual a xp b));

  (* Simulated AP1000 runs: the scaling story. *)
  Format.printf "@.simulated AP1000 (column-distributed over P processors):@.";
  Format.printf "   P   time (s)   speedup@.";
  let t1 = ref 0.0 in
  List.iter
    (fun p ->
      let xs, stats = Algorithms.Gauss.solve (Machine.Backend.sim ()) ~procs:p a b in
      assert (Algorithms.Seq_kernels.residual a xs b < 1e-8);
      let t = stats.Machine.Sim.makespan in
      if p = 1 then t1 := t;
      Format.printf "  %2d   %8.4f   %6.2f@." p t (!t1 /. t))
    [ 1; 2; 4; 8; 16 ];
  Format.printf "@.(elimination is broadcast-bound: speedup saturates as P grows,@."
    ;
  Format.printf " the classic behaviour for column-blocked Gauss-Jordan.)@."
