(* Runs the checked-in output of Transform.Codegen (see
   examples/generated/generated_pipeline.ml) and verifies it against the
   skeleton interpreter.

   Run with:  dune exec examples/generated_demo.exe *)

let pipeline_src = "fold add . map square . rotate 3 . iter 2 [ map incr ] . fetch reverse"

let () =
  Format.printf "=== Compiled skeleton pipeline (Transform.Codegen output) ===@.@.";
  Format.printf "pipeline: %s@.@." pipeline_src;
  let input = Array.init 1024 (fun i -> i mod 97) in
  let run backend = Generated_pipeline_lib.Generated_pipeline.run_pipeline backend ~procs:8 input in
  let result, stats = run (Machine.Backend.sim ()) in
  Format.printf "generated code on 8 simulated processors: %d (%.6f s, %d msgs)@." result
    stats.Machine.Sim.makespan stats.Machine.Sim.total_msgs;
  (* the emitted driver takes the engine as a value: the same code on real domains *)
  let mc_result, _ = run (Machine.Backend.multicore ~domains:2 ()) in
  Format.printf "generated code on 8 ranks, 2 real domains: %d@." mc_result;
  assert (mc_result = result);
  (* reference: the interpreter on the same pipeline *)
  let e = Transform.Parser.parse_exn pipeline_src in
  let expected =
    Transform.Value.as_int (Transform.Ast.eval e (Transform.Value.of_int_array input))
  in
  Format.printf "interpreter reference              : %d@." expected;
  assert (result = expected);
  (* the second codegen target: the same pipeline over the host library *)
  let host_result = Generated_pipeline_lib.Generated_pipeline_host.run_pipeline input in
  Format.printf "host-target generated code         : %d@." host_result;
  assert (host_result = expected);
  Format.printf "@.both generated targets and the interpreter agree.@.";
  (* the Section 4 story: the sequential foldr form is NOT compilable until
     the map-distribution rewrite runs *)
  let seq_form = Transform.Ast.Foldr_compose (Transform.Fn.add, Transform.Fn.square) in
  assert (not (Transform.Codegen.compilable seq_form));
  let par_form, _ = Transform.Rewrite.normalize seq_form in
  assert (Transform.Codegen.compilable par_form);
  Format.printf "foldr (add . square) is not compilable; after map distribution (%s) it is.@."
    (Transform.Ast.to_string par_form)
