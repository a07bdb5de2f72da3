(* Parameterised experiment driver.

     dune exec bin/experiments.exe -- table1 --size 100000
     dune exec bin/experiments.exe -- fig3 --procs 1,2,4,8,16,32,64
     dune exec bin/experiments.exe -- sorts --size 200000 --cost modern
     dune exec bin/experiments.exe -- gauss --size 256
     dune exec bin/experiments.exe -- jacobi --size 400 --procs 1,2,4,8
     dune exec bin/experiments.exe -- cannon --size 144 --grids 1,2,3,4,6
     dune exec bin/experiments.exe -- trace --size 32

   Every experiment runs on the simulated distributed-memory machine; the
   cost model and (where meaningful) topology are selectable. *)

open Cmdliner

let cost_model_conv =
  let parse = function
    | "ap1000" -> Ok Machine.Cost_model.ap1000
    | "modern" -> Ok Machine.Cost_model.modern
    | "zero-comm" -> Ok Machine.Cost_model.zero_comm
    | "unit" -> Ok Machine.Cost_model.unit_costs
    | s -> Error (`Msg (Printf.sprintf "unknown cost model %S (ap1000|modern|zero-comm|unit)" s))
  in
  let print ppf (c : Machine.Cost_model.t) = Format.fprintf ppf "%s" c.name in
  Arg.conv (parse, print)

let cost_arg =
  Arg.(value & opt cost_model_conv Machine.Cost_model.ap1000 & info [ "cost" ] ~docv:"MODEL"
         ~doc:"Cost model: ap1000 (default), modern, zero-comm, unit.")

let int_list_conv =
  Arg.conv
    ( (fun s ->
        try Ok (List.map int_of_string (String.split_on_char ',' s))
        with _ -> Error (`Msg "expected a comma-separated list of integers")),
      fun ppf l -> Format.fprintf ppf "%s" (String.concat "," (List.map string_of_int l)) )

let procs_list_arg default =
  Arg.(value & opt int_list_conv default & info [ "procs" ] ~docv:"P1,P2,..." ~doc:"Processor counts.")

let size_arg default =
  Arg.(value & opt int default & info [ "size" ] ~docv:"N" ~doc:"Problem size.")

let seed_arg = Arg.(value & opt int 1995 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.")

let random_ints ~seed n =
  Runtime.Xoshiro.int_array (Runtime.Xoshiro.of_seed seed) ~len:n ~bound:1_000_000

let speedup_row t1 p t = Printf.printf "  %5d  %10.3f  %8.2f\n" p t (t1 /. t)

let run_sort_series name sorter ~seed ~size procs =
  let data = random_ints ~seed size in
  Printf.printf "%s, n = %d:\n" name size;
  Printf.printf "  procs    time (s)   speedup\n";
  let t1 = ref nan in
  List.iter
    (fun p ->
      match sorter ~procs:p data with
      | sorted, (stats : Machine.Sim.stats) ->
          if not (Algorithms.Seq_kernels.is_sorted sorted) then failwith "result not sorted!";
          if Float.is_nan !t1 then t1 := stats.makespan;
          speedup_row !t1 p stats.makespan
      | exception Invalid_argument msg -> Printf.printf "  %5d  (skipped: %s)\n" p msg)
    procs

(* --- table1 / fig3 ---------------------------------------------------------- *)

let table1 cost size seed procs =
  run_sort_series "Table 1 / Figure 3: hyperquicksort (simulated)"
    (fun ~procs data -> Algorithms.Hyperquicksort.sort (Machine.Backend.sim ~cost ()) ~procs data)
    ~seed ~size procs

let table1_cmd =
  let doc = "Regenerate Table 1 (runtime) and Figure 3 (speedup) for hyperquicksort." in
  Cmd.v (Cmd.info "table1" ~doc)
    Term.(const table1 $ cost_arg $ size_arg 100_000 $ seed_arg $ procs_list_arg [ 1; 2; 4; 8; 16; 32 ])

let fig3_cmd =
  let doc = "Alias of table1 (the figure is the same data as a speedup curve)." in
  Cmd.v (Cmd.info "fig3" ~doc)
    Term.(const table1 $ cost_arg $ size_arg 100_000 $ seed_arg $ procs_list_arg [ 1; 2; 4; 8; 16; 32 ])

(* --- sort comparison --------------------------------------------------------- *)

let sorts cost size seed procs =
  List.iter
    (fun (name, sorter) -> run_sort_series name sorter ~seed ~size procs)
    [
      ( "hyperquicksort",
        fun ~procs data -> Algorithms.Hyperquicksort.sort (Machine.Backend.sim ~cost ()) ~procs data );
      ( "sample sort (PSRS)",
        fun ~procs data -> Algorithms.Sample_sort.sort (Machine.Backend.sim ~cost ()) ~procs data );
      ("bitonic", fun ~procs data -> Algorithms.Bitonic.sort (Machine.Backend.sim ~cost ()) ~procs data);
    ]

let sorts_cmd =
  let doc = "Compare hyperquicksort with the PSRS and bitonic baselines." in
  Cmd.v (Cmd.info "sorts" ~doc)
    Term.(const sorts $ cost_arg $ size_arg 100_000 $ seed_arg $ procs_list_arg [ 1; 4; 16; 32 ])

(* --- gauss -------------------------------------------------------------------- *)

let gauss cost size seed procs =
  let a, b = Algorithms.Gauss.random_system ~seed size in
  Printf.printf "Gauss-Jordan, n = %d:\n" size;
  Printf.printf "  procs    time (s)   speedup\n";
  let t1 = ref nan in
  List.iter
    (fun p ->
      let x, stats = Algorithms.Gauss.solve (Machine.Backend.sim ~cost ()) ~procs:p a b in
      let res = Algorithms.Seq_kernels.residual a x b in
      if res > 1e-7 then failwith "residual too large!";
      if Float.is_nan !t1 then t1 := stats.makespan;
      speedup_row !t1 p stats.makespan)
    procs

let gauss_cmd =
  let doc = "Gauss-Jordan solver scaling on the simulated machine." in
  Cmd.v (Cmd.info "gauss" ~doc)
    Term.(const gauss $ cost_arg $ size_arg 256 $ seed_arg $ procs_list_arg [ 1; 2; 4; 8; 16 ])

(* --- jacobi -------------------------------------------------------------------- *)

let jacobi cost size procs =
  let f = Array.make size 1.0 in
  Printf.printf "Jacobi (1-D Poisson), n = %d, tol = 1e-6:\n" size;
  Printf.printf "  procs    time (s)   iterations\n";
  List.iter
    (fun p ->
      let r, stats =
        Algorithms.Jacobi.solve (Machine.Backend.sim ~cost ()) ~procs:p ~tol:1e-6 f ~left:0.0 ~right:0.0
      in
      Printf.printf "  %5d  %10.3f   %d\n" p stats.makespan r.iterations)
    procs

let jacobi_cmd =
  let doc = "Jacobi relaxation scaling (latency-bound regime)." in
  Cmd.v (Cmd.info "jacobi" ~doc)
    Term.(const jacobi $ cost_arg $ size_arg 400 $ procs_list_arg [ 1; 2; 4; 8 ])

(* --- cannon -------------------------------------------------------------------- *)

let cannon cost size seed grids =
  let a = Algorithms.Cannon.random_matrix ~seed size in
  let b = Algorithms.Cannon.random_matrix ~seed:(seed + 1) size in
  let reference = Algorithms.Seq_kernels.matmul a b in
  Printf.printf "Cannon matrix multiply, n = %d (torus topology):\n" size;
  Printf.printf "   grid  procs    time (s)   speedup\n";
  let t1 = ref nan in
  List.iter
    (fun q ->
      if size mod q <> 0 then Printf.printf "  %2dx%-2d  (skipped: %d does not divide %d)\n" q q q size
      else begin
        let c, stats = Algorithms.Cannon.multiply (Machine.Backend.sim ~cost ()) ~grid:q a b in
        let ok =
          Array.for_all2
            (fun r1 r2 -> Array.for_all2 (fun x y -> Float.abs (x -. y) < 1e-8) r1 r2)
            c reference
        in
        if not ok then failwith "wrong product!";
        if Float.is_nan !t1 then t1 := stats.makespan;
        Printf.printf "  %2dx%-2d  %5d  %10.4f  %8.2f\n" q q (q * q) stats.makespan
          (!t1 /. stats.makespan)
      end)
    grids

let grids_arg =
  Arg.(value & opt int_list_conv [ 1; 2; 3; 4; 6 ] & info [ "grids" ] ~docv:"Q1,Q2,..." ~doc:"Grid sides.")

let cannon_cmd =
  let doc = "Cannon's matrix multiplication on a simulated torus." in
  Cmd.v (Cmd.info "cannon" ~doc) Term.(const cannon $ cost_arg $ size_arg 144 $ seed_arg $ grids_arg)

(* --- trace (Figure 2) ----------------------------------------------------------- *)

let trace cost size seed =
  let data = random_ints ~seed size in
  let trace = Machine.Trace.create () in
  let sorted, stats =
    Algorithms.Hyperquicksort.sort (Machine.Backend.sim ~cost ~trace ()) ~procs:4 data
  in
  Printf.printf "Figure 2: hyperquicksort of %d values on a 2-cube\n\n" size;
  List.iter
    (fun (t, p, msg) -> Printf.printf "[t=%9.6f] p%d  %s\n" t p msg)
    (Machine.Trace.notes trace);
  Printf.printf "\nsorted: [%s]\n"
    (String.concat " " (Array.to_list (Array.map string_of_int sorted)));
  Printf.printf "makespan %.6f s, %d messages\n" stats.makespan stats.total_msgs

let trace_cmd =
  let doc = "Regenerate Figure 2: a stage-by-stage hyperquicksort trace on 4 processors." in
  Cmd.v (Cmd.info "trace" ~doc) Term.(const trace $ cost_arg $ size_arg 32 $ seed_arg)

(* --- optimize: parse a pipeline, transform it, report ---------------------------- *)

let optimize pipeline_src file entry procs n aggressive run_sim emit =
  let parsed =
    match (pipeline_src, file) with
    | Some src, None -> Transform.Parser.parse src
    | None, Some path -> (
        let ic = open_in path in
        let len = in_channel_length ic in
        let src = really_input_string ic len in
        close_in ic;
        match Transform.Parser.parse_program src with
        | Error e -> Error e
        | Ok defs -> (
            match List.assoc_opt entry defs with
            | Some e -> Ok e
            | None ->
                Error
                  {
                    Transform.Parser.position = 0;
                    message = Printf.sprintf "no definition named %S in %s" entry path;
                  }))
    | Some _, Some _ ->
        Error { Transform.Parser.position = 0; message = "--pipeline and --file are exclusive" }
    | None, None ->
        Error { Transform.Parser.position = 0; message = "need --pipeline SRC or --file FILE" }
  in
  match parsed with
  | Error { position; message } ->
      Printf.eprintf "parse error at character %d: %s\n" position message;
      exit 1
  | Ok e ->
      let rules = if aggressive then Transform.Rules.aggressive else Transform.Rules.default in
      let r = Transform.Optimizer.optimize ~procs ~n ~rules e in
      Format.printf "%a@." Transform.Optimizer.pp_report r;
      if run_sim then begin
        let input =
          Transform.Value.of_int_array
            (Runtime.Xoshiro.int_array (Runtime.Xoshiro.of_seed 1) ~len:n ~bound:1_000)
        in
        try
          let sim = Machine.Backend.sim () in
          let v1, s1 = Transform.Spmd_exec.run sim ~procs e input in
          let v2, s2 = Transform.Spmd_exec.run sim ~procs r.Transform.Optimizer.output input in
          if not (Transform.Value.equal v1 v2) then failwith "optimised pipeline changed the result!";
          Printf.printf "simulated: %.6f s -> %.6f s (x%.2f), results identical\n"
            s1.Machine.Sim.makespan s2.Machine.Sim.makespan
            (s1.Machine.Sim.makespan /. s2.Machine.Sim.makespan)
        with Transform.Spmd_exec.Unsupported msg ->
          Printf.printf "(not simulated: %s)\n" msg
      end;
      if emit then begin
        match Transform.Codegen.generate r.Transform.Optimizer.output with
        | code -> Printf.printf "\n--- generated OCaml (optimised pipeline) ---\n%s" code
        | exception Transform.Codegen.Not_compilable msg ->
            Printf.printf "\n(not compilable: %s)\n" msg
      end

let pipeline_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "pipeline" ] ~docv:"SRC"
        ~doc:
          "Pipeline source, e.g. 'map square . rotate 3 . map incr' or 'foldr add square'. \
           Stages: id, map/imap/fold/scan F, foldr F G, send/fetch (id|reverse|shift:K), \
           rotate K, split P, combine, mapn [...], iter K [...].")

let file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "file" ] ~docv:"FILE"
        ~doc:"A program of 'let name = pipeline' definitions; optimise --entry (default: main).")

let entry_arg =
  Arg.(value & opt string "main" & info [ "entry" ] ~docv:"NAME" ~doc:"Definition to optimise.")

let aggressive_arg =
  Arg.(value & flag & info [ "aggressive" ] ~doc:"Also commute maps ahead of data movement.")

let run_sim_arg =
  Arg.(value & flag & info [ "run" ] ~doc:"Execute both pipelines on the simulator and compare.")

let emit_arg =
  Arg.(value & flag & info [ "emit" ] ~doc:"Print the OCaml code generated for the optimised pipeline.")

let optimize_cmd =
  let doc = "Parse an SCL pipeline, apply the Section 4 transformations, report costs." in
  Cmd.v (Cmd.info "optimize" ~doc)
    Term.(
      const optimize $ pipeline_arg $ file_arg $ entry_arg
      $ Arg.(value & opt int 16 & info [ "procs" ] ~docv:"P" ~doc:"Processors for the cost model.")
      $ size_arg 65_536 $ aggressive_arg $ run_sim_arg $ emit_arg)

(* --- portability sweep ------------------------------------------------------------ *)

let portability size seed procs =
  let data = random_ints ~seed size in
  Printf.printf "hyperquicksort, %d keys, unchanged program across machine models:\n" size;
  Printf.printf "  %-10s %10s %10s %9s\n" "machine" "t(1) s" (Printf.sprintf "t(%d) s" procs) "speedup";
  List.iter
    (fun (cm : Machine.Cost_model.t) ->
      let _, s1 = Algorithms.Hyperquicksort.sort (Machine.Backend.sim ~cost:cm ()) ~procs:1 data in
      let _, sp = Algorithms.Hyperquicksort.sort (Machine.Backend.sim ~cost:cm ()) ~procs data in
      Printf.printf "  %-10s %10.4f %10.4f %8.1fx\n" cm.name s1.Machine.Sim.makespan
        sp.Machine.Sim.makespan
        (s1.Machine.Sim.makespan /. sp.Machine.Sim.makespan))
    [
      Machine.Cost_model.ap1000;
      Machine.Cost_model.paragon;
      Machine.Cost_model.cm5;
      Machine.Cost_model.t3d;
      Machine.Cost_model.modern;
    ]

let portability_cmd =
  let doc = "Re-price the unchanged hyperquicksort program on five machine calibrations." in
  Cmd.v (Cmd.info "portability" ~doc)
    Term.(
      const portability $ size_arg 100_000 $ seed_arg
      $ Arg.(value & opt int 32 & info [ "procs" ] ~docv:"P" ~doc:"Parallel processor count."))

(* --- main ------------------------------------------------------------------------ *)

let () =
  let doc = "Experiments for the SCL skeletons reproduction (Darlington et al., PPoPP 1995)." in
  let info = Cmd.info "experiments" ~version:"1.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info [
         table1_cmd; fig3_cmd; sorts_cmd; gauss_cmd; jacobi_cmd; cannon_cmd; trace_cmd;
         optimize_cmd; portability_cmd;
       ]))
