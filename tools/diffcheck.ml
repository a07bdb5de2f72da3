(* Cross-backend differential oracle + rule oracle driver.

   Usage:
     diffcheck [--budget N] [--seed S] [--rule-cases N] [--cost-cases N]
               [--search-cases N] [--tolerance F] [--no-pool] [--out FILE]

   Phases:
     0. procs equivalence — Prop.Engine_oracle's equivalence family
                            ([--engine-cases] seeds) and faults family
                            ([--fault-cases] seeds) on the forked-process
                            engine [Machine.Procs]: every program equal
                            to the simulator, chaos leaving values as
                            they were, and the farm surviving a seeded
                            worker crash (a child dying with its
                            sockets) with the dead rank reported in
                            [stats.crashed].  Runs FIRST: OCaml
                            permanently refuses Unix.fork once any other
                            domain has ever been created in the process.
     1. rule oracle       — every rule in Transform.Rules.all gets
                            [--rule-cases] generated pipelines in which it
                            fires; eval (rewrite e) must equal eval e.
     2. cost consistency  — when the static cost model ranks the normal
                            form as cheaper, the simulated makespan must
                            not regress beyond [--tolerance].
     3. fused primitives  — [--fused-cases] random (map, op, input) cases
                            check that the fused Exec primitives
                            (map_fold / map_scan / map_compose) agree with
                            their composed forms on both backends, over
                            ints, dyadic floats and pairs.
     4. differential      — [--budget] random pipelines (int, float, pair
                            elements; possibly empty) are run through the
                            reference interpreter, Host_exec seq and pool
                            (each also with ~optimize:true), and Spmd_exec
                            on the simulator at procs 1/2/4 (flat pipelines only); all must
                            agree.
     5. engine equivalence — the equivalence family ([--engine-cases]
                            seeds) on the real-domain multicore engine:
                            boxed and flat-int hyperquicksort and the
                            collective battery at p ∈ {1, 2, 4}, Cannon
                            and SUMMA, the ten other algorithm programs,
                            the boxed jacobi/heat2d/cg solvers and one
                            generated pipeline through Spmd_exec, each
                            equal to its value on the simulator.
     6. topology cost     — for a hypercube-exchange program
                            (hyperquicksort), the simulated makespan on a
                            Hypercube must not exceed the makespan on a
                            Ring (where cube neighbours are multi-hop), at
                            p ∈ {4, 8} over fixed seeds.
     7. fault injection   — the faults family ([--fault-cases] seeds)
                            on the simulator and on the multicore
                            engine: the collective battery (reduce at
                            every root under a non-commutative op, and
                            a split) under delay/reorder and straggler
                            chaos is value-identical to the fault-free
                            run at p ∈ {2, 4, 8}; the zero-fault wrapper
                            is an identity (bit-identical stats on the
                            simulator); a worker crash mid-farm still
                            yields the complete result set.
     8. search oracle     — [--search-cases] seeded pipelines: the beam
                            search must never pick a plan the cost model
                            ranks above greedy's, searched plans must
                            preserve meaning (simulated makespan within
                            [--tolerance] of greedy's when both plans run
                            on the simulator), and nested pipelines must
                            be value-identical across the reference
                            interpreter, the host backend and Spmd_exec at
                            p ∈ {1, 2, 4} — before and after beam
                            optimisation (the segmented-flattening
                            differential).
     9. flat-vs-boxed     — the tiers family ([--flat-cases] seeds) on
                            the simulator and on the multicore engine:
                            the unboxed ports of jacobi, cg (p = 1..4)
                            and heat2d (p = 1, 3, 4), and the flat-int
                            hyperquicksort, bitwise-identical to the
                            boxed tier on the simulator.  Also the
                            host-flat legs: the unboxed Flat_exec
                            kernels (sequential and pool) vs the boxed
                            Scl skeletons, and the Host_exec flat fast
                            path vs the reference interpreter — all
                            bitwise, on dyadic data.

   Phases 0, 5, 7 and 9 draw their cases from Prop.Engine_oracle, the
   catalogue the engine test suites also run (at seed 42).  Case seed k
   of a phase is [--seed] plus k times 1009 (equivalence), 1013 (faults)
   or 1019 (tiers); workload parameters (input lengths, value bounds,
   matrix sizes, chaos probabilities, crash points) derive from the case
   seed, so a nightly run with a random --seed explores different
   workloads, not merely different data for a fixed shape.

   [--only-engines] restricts the run to phases 0, 5 and 7 (the engine
   backends and the fault injector) — the cheap cross-engine gate CI
   runs per-push without paying for the full pipeline oracles.

   On failure: prints the shrunk counterexample (Ast.to_string + input +
   seed + case index), optionally writes it to --out, exits 1.
   Exit codes: 0 all pass, 1 divergence found, 2 usage error / gave up. *)

let sim = Machine.Backend.sim ()
let mc = Machine.Backend.multicore ()

let usage =
  "diffcheck [--budget N] [--seed S] [--rule-cases N] [--cost-cases N] [--fused-cases N] \
   [--engine-cases N] [--fault-cases N] [--search-cases N] [--flat-cases N] [--tolerance F] \
   [--only-engines] [--no-pool] [--out FILE]"

let failures : string list ref = ref []

let record_failure ~phase print (f : _ Prop.Runner.failure) =
  let text =
    Fmt.str "@[<v>phase: %s@,%a@]" phase (Prop.Runner.pp_failure print) f
  in
  Printf.printf "FAIL  %s\n%s\n" phase text;
  failures := text :: !failures

(* Reports the phases that are lists of labelled checks rather than
   Runner properties (0, 5, 6, 7, 8 and 9). *)
let report_checks ~phase (cases : Prop.Engine_oracle.check list) : bool =
  match Prop.Engine_oracle.failures cases with
  | [] ->
      Printf.printf "ok    %-40s %d cases (0 discarded)\n%!" phase (List.length cases);
      true
  | bad ->
      let text =
        Printf.sprintf "phase: %s\n%s" phase (String.concat "\n" bad)
      in
      Printf.printf "FAIL  %s\n%s\n" phase text;
      failures := text :: !failures;
      false

let report ~phase print outcome =
  match outcome with
  | Prop.Runner.Pass { checked; discarded } ->
      Printf.printf "ok    %-40s %d cases (%d discarded)\n%!" phase checked discarded;
      true
  | Prop.Runner.Gave_up { checked; discarded } ->
      Printf.printf "GAVE UP %-38s after %d cases (%d discarded)\n%!" phase checked discarded;
      exit 2
  | Prop.Runner.Fail f ->
      record_failure ~phase print f;
      false

let () =
  let budget = ref 500 in
  let seed = ref 42 in
  let rule_cases = ref 100 in
  let cost_cases = ref 100 in
  let fused_cases = ref 200 in
  let engine_cases = ref 3 in
  let fault_cases = ref 3 in
  let search_cases = ref 3 in
  let flat_cases = ref 3 in
  let tolerance = ref 1.25 in
  let only_engines = ref false in
  let no_pool = ref false in
  let out = ref "" in
  let spec =
    [
      ("--budget", Arg.Set_int budget, "N differential pipelines to generate (default 500)");
      ("--seed", Arg.Set_int seed, "S master PRNG seed (default 42)");
      ("--rule-cases", Arg.Set_int rule_cases, "N firing cases per rule (default 100)");
      ("--cost-cases", Arg.Set_int cost_cases, "N cost-consistency cases (default 100)");
      ("--fused-cases", Arg.Set_int fused_cases, "N fused-primitive cases (default 200)");
      ( "--engine-cases",
        Arg.Set_int engine_cases,
        "N seeded shapes of the equivalence family, phases 0 and 5 (default 3)" );
      ( "--fault-cases",
        Arg.Set_int fault_cases,
        "N seeded schedules of the faults family, phases 0 and 7 (default 3)" );
      ( "--search-cases",
        Arg.Set_int search_cases,
        "N seeded search-vs-greedy + flattening differentials (default 3)" );
      ( "--flat-cases",
        Arg.Set_int flat_cases,
        "N seeded shapes of the tiers family and host-flat legs, phase 9 (default 3)" );
      ( "--tolerance",
        Arg.Set_float tolerance,
        "F allowed simulated-makespan regression factor (default 1.25)" );
      ( "--only-engines",
        Arg.Set only_engines,
        " run only the procs, engine-equivalence and fault-injection phases (0, 5 and 7)" );
      ("--no-pool", Arg.Set no_pool, " skip the multicore pool backend");
      ("--out", Arg.Set_string out, "FILE write failing seed + counterexample to FILE");
    ]
  in
  (try Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage
   with Arg.Bad m ->
     prerr_endline m;
     exit 2);
  let config count = { Prop.Runner.default with count; seed = !seed } in
  let full = not !only_engines in
  Printf.printf "diffcheck: seed %d, budget %d, %d cases/rule%s\n%!" !seed !budget !rule_cases
    (if full then "" else " (engines-only)");

  (* One catalogue family over a phase's case seeds: case k runs at
     [--seed] + k * [stride]. *)
  let family f ~cases ~stride backend =
    List.concat (List.init cases (fun k -> f ~seed:(!seed + (stride * k)) backend))
  in
  let equivalence be = family Prop.Engine_oracle.equivalence ~cases:!engine_cases ~stride:1009 be in
  let faults be = family Prop.Engine_oracle.faults ~cases:!fault_cases ~stride:1013 be in
  let tiers be = family Prop.Engine_oracle.tiers ~cases:!flat_cases ~stride:1019 be in

  (* phase 0: forked-process engine equivalence + faults.  This MUST run
     first: OCaml permanently refuses [Unix.fork] once any other domain
     has EVER been created in the process, so every [Machine.Procs] leg
     has to run before the pool phases or any multicore case spawns a
     domain. *)
  let ok_procs =
    let procs = Machine.Backend.procs in
    report_checks ~phase:"procs-equivalence + faults" (equivalence procs @ faults procs)
  in

  (* phase 1: rule oracle *)
  let ok_rules =
    full = false
    || List.for_all
      (fun (rule : Transform.Rules.rule) ->
        report
          ~phase:(Printf.sprintf "rule %s" rule.Transform.Rules.rname)
          Prop.Pipe_gen.print
          (Prop.Oracle.check_rule ~config:(config !rule_cases) rule))
      Transform.Rules.all
  in

  (* phase 2: cost-model consistency *)
  let ok_cost =
    (not full)
    || report ~phase:"cost-vs-simulator" Prop.Pipe_gen.print
         (Prop.Oracle.check_cost ~config:(config !cost_cases) ~procs:4 ~tolerance:!tolerance ())
  in

  (* phases 3 and 4 share the pool backend *)
  let ok_fused, ok_diff =
    if not full then (true, true)
    else begin
      let pool = if !no_pool then None else Some (Runtime.Pool.create ~num_domains:3 ()) in
      let stats = Prop.Oracle.new_stats () in
      let ok_fused, ok_diff =
        Fun.protect
          ~finally:(fun () -> Option.iter Runtime.Pool.teardown pool)
          (fun () ->
            let pool_exec = Option.map Scl.Exec.on_pool pool in
            (* phase 3: fused primitives vs composed forms *)
            let ok_fused =
              report ~phase:"fused-primitives" Prop.Oracle.print_fused
                (Prop.Oracle.check_fused ~config:(config !fused_cases) ?pool_exec ())
            in
            (* phase 4: differential oracle *)
            let ok_diff =
              report ~phase:"differential" Prop.Pipe_gen.print
                (Prop.Oracle.check_differential ~config:(config !budget) ?pool_exec ~stats
                   ~sim_procs:[ 1; 2; 4 ] ())
            in
            (ok_fused, ok_diff))
      in
      Printf.printf "differential: %d compared, %d on simulator, %d sim-skipped (nested)\n%!"
        stats.Prop.Oracle.compared stats.Prop.Oracle.sim_ran stats.Prop.Oracle.sim_skipped;
      (ok_fused, ok_diff)
    end
  in

  (* phase 5: engine equivalence — identical values from the simulator and
     the real-domain multicore engine for the same SPMD program.  (The
     forked-process legs are phase 0: fork must precede any domain.) *)
  let ok_engine = report_checks ~phase:"engine-equivalence" (equivalence mc) in

  (* phase 6: topology cost — hyperquicksort's messages all travel between
     hypercube neighbours (XOR partners), so pricing the run on a Ring
     (where those partners are multi-hop) must never be cheaper than on the
     Hypercube. *)
  let ok_topo =
    if not full then true
    else begin
    let open Machine in
    let cases =
      List.concat_map
        (fun procs ->
          List.init 2 (fun k ->
              let case_seed = !seed + (77 * k) in
              ( Printf.sprintf "hyperquicksort p=%d seed=%d" procs case_seed,
                fun () ->
                  let rng = Runtime.Xoshiro.of_seed case_seed in
                  let data = Runtime.Xoshiro.int_array rng ~len:1024 ~bound:100_000 in
                  let _, cube =
                    Algorithms.Hyperquicksort.sort sim ~topology:Topology.Hypercube ~procs data
                  in
                  let _, ring =
                    Algorithms.Hyperquicksort.sort sim ~topology:Topology.Ring ~procs data
                  in
                  if cube.Sim.makespan <= ring.Sim.makespan *. (1.0 +. 1e-9) then None
                  else
                    Some
                      (Printf.sprintf "hypercube makespan %.9g > ring %.9g" cube.Sim.makespan
                         ring.Sim.makespan) )))
        [ 4; 8 ]
    in
    report_checks ~phase:"topology-cost (hypercube <= ring)" cases
    end
  in

  (* phase 7: fault injection — chaos schedules must never change values,
     and the crash-tolerant farm must complete under a single worker
     crash, on the simulator and on real domains. *)
  let ok_fault = report_checks ~phase:"fault-injection" (faults sim @ faults mc) in

  (* phase 8: search oracle — beam search never beaten by greedy on the
     cost model, searched plans preserve meaning and makespan, and nested
     pipelines agree across all backends before and after optimisation. *)
  let ok_search =
    if not full then true
    else begin
    let open Transform in
    let gen_nested =
      let open Prop.Gen in
      let* n = int_range 1 16 in
      let* p = int_range 1 n in
      let* body = Prop.Pipe_gen.gen_ctx ~max_stages:3 in
      let* post = Prop.Pipe_gen.gen_ctx ~max_stages:2 in
      let+ input = Prop.Pipe_gen.gen_input ~n in
      {
        Prop.Pipe_gen.chain =
          Ast.Split p :: Ast.Map_nested (Ast.of_chain body) :: Ast.Combine :: post;
        input;
      }
    in
    let input_len v = match v with Value.Arr a -> max 1 (Array.length a) | _ -> 1 in
    let cases = ref [] in
    let add label f = cases := (label, f) :: !cases in
    for k = 0 to !search_cases - 1 do
      let case_seed = !seed + (1031 * k) in
      let c = Prop.Gen.generate ~seed:case_seed (Prop.Pipe_gen.gen ()) in
      let e = Prop.Pipe_gen.expr c in
      let n = input_len c.Prop.Pipe_gen.input in
      let greedy () = Optimizer.optimize ~procs:4 ~n ~strategy:Optimizer.Greedy e in
      let beam () = Optimizer.optimize ~procs:4 ~n ~strategy:Optimizer.default_beam e in
      add
        (Printf.sprintf "search-vs-greedy seed=%d" case_seed)
        (fun () ->
          let g = greedy () and b = beam () in
          if b.Optimizer.cost_after > g.Optimizer.cost_after +. 1e-12 then
            Some
              (Printf.sprintf "beam cost %.6g > greedy %.6g on %s" b.Optimizer.cost_after
                 g.Optimizer.cost_after (Ast.to_string e))
          else
            match Ast.eval e c.Prop.Pipe_gen.input with
            | exception Value.Type_error _ -> None (* intentionally-partial case *)
            | expected -> (
                match Ast.eval b.Optimizer.output c.Prop.Pipe_gen.input with
                | exception ex ->
                    Some
                      (Printf.sprintf "beam plan raised %s on %s" (Printexc.to_string ex)
                         (Ast.to_string e))
                | got ->
                    if Value.equal expected got then None
                    else Some ("beam plan changed the value of " ^ Ast.to_string e)));
      add
        (Printf.sprintf "search-makespan seed=%d" case_seed)
        (fun () ->
          let g = greedy () and b = beam () in
          let sim_ok plan =
            Prop.Pipe_gen.spmd_executable { c with Prop.Pipe_gen.chain = Ast.to_chain plan }
          in
          if not (sim_ok g.Optimizer.output && sim_ok b.Optimizer.output) then None
          else
            match
              ( Spmd_exec.run sim ~procs:4 g.Optimizer.output c.Prop.Pipe_gen.input,
                Spmd_exec.run sim ~procs:4 b.Optimizer.output c.Prop.Pipe_gen.input )
            with
            | exception Value.Type_error _ -> None
            | (_, sg), (_, sb) ->
                if sb.Machine.Sim.makespan <= (sg.Machine.Sim.makespan *. !tolerance) +. 1e-9
                then None
                else
                  Some
                    (Printf.sprintf "searched makespan %.6g > greedy %.6g * tolerance on %s"
                       sb.Machine.Sim.makespan sg.Machine.Sim.makespan (Ast.to_string e)));
      let nc = Prop.Gen.generate ~seed:(case_seed lxor 0x5ea) gen_nested in
      add
        (Printf.sprintf "flattening-differential seed=%d" case_seed)
        (fun () ->
          let ne = Prop.Pipe_gen.expr nc in
          let input = nc.Prop.Pipe_gen.input in
          match Ast.eval ne input with
          | exception Value.Type_error _ -> None
          | expected ->
              let nn = input_len input in
              let b = Optimizer.optimize ~procs:4 ~n:nn ~strategy:Optimizer.default_beam ne in
              let check_plan label plan =
                let host =
                  match Host_exec.eval plan input with
                  | v ->
                      if Value.equal expected v then None
                      else Some (Printf.sprintf "%s: host value differs" label)
                  | exception ex ->
                      Some (Printf.sprintf "%s: host raised %s" label (Printexc.to_string ex))
                in
                match host with
                | Some _ as bad -> bad
                | None ->
                    List.fold_left
                      (fun acc procs ->
                        match acc with
                        | Some _ -> acc
                        | None -> (
                            match Spmd_exec.run sim ~procs plan input with
                            | got, _ ->
                                if Value.equal expected got then None
                                else
                                  Some (Printf.sprintf "%s: sim p=%d value differs" label procs)
                            | exception ex ->
                                Some
                                  (Printf.sprintf "%s: sim p=%d raised %s" label procs
                                     (Printexc.to_string ex))))
                      None [ 1; 2; 4 ]
              in
              (match check_plan (Printf.sprintf "nested %s" (Ast.to_string ne)) ne with
              | Some _ as bad -> bad
              | None ->
                  check_plan
                    (Printf.sprintf "beam plan %s" (Ast.to_string b.Optimizer.output))
                    b.Optimizer.output))
    done;
    report_checks ~phase:"search-vs-greedy + flattening" (List.rev !cases)
    end
  in

  (* phase 9: flat-vs-boxed differential — the catalogue's tiers family
     (the unboxed ports of jacobi/heat2d/cg and the flat-int sort against
     the boxed tier on the simulator, bitwise) on both engines, then the
     host-flat legs below.  Workload sizes and data derive from the case
     seed. *)
  let ok_flat =
    if not full then true
    else begin
    let vec_bitwise a b =
      Array.length a = Array.length b && Array.for_all2 Float.equal a b
    in
    let cases = ref [] in
    let add label f = cases := (label, f) :: !cases in
    for k = 0 to !flat_cases - 1 do
      let case_seed = !seed + (1019 * k) in
      let shape = Runtime.Xoshiro.of_seed (case_seed lxor 0xf1a7) in
      let rng = Runtime.Xoshiro.of_seed case_seed in
      (* host-flat legs: the unboxed Flat_exec kernels (sequential and
         pool) against the boxed Scl skeletons, and the Host_exec flat
         fast path against the reference interpreter.  Dyadic data keeps
         parallel fadd reassociation exact, so every comparison is
         bitwise. *)
      let fn = 1 + Runtime.Xoshiro.int shape 64 in
      let fdata =
        Array.init fn (fun _ -> float_of_int (Runtime.Xoshiro.int rng 4096 - 2048) *. 0.25)
      in
      add
        (Printf.sprintf "flat host kernels = boxed n=%d seed=%d" fn case_seed)
        (fun () ->
          let pa = Scl.Par_array.of_array fdata in
          let fa = Scl.Flat.of_float_array fdata in
          let boxed_map = Scl.Par_array.to_array (Scl.map (fun x -> x *. 2.0) pa) in
          let boxed_fold = Scl.fold ( +. ) pa in
          let boxed_scan = Scl.Par_array.to_array (Scl.scan ( +. ) pa) in
          let boxed_mf = Scl.map_fold ( +. ) (fun x -> x +. 1.0) pa in
          let boxed_ms = Scl.Par_array.to_array (Scl.map_scan ( +. ) (fun x -> x *. 0.5) pa) in
          let pool = Runtime.Pool.create ~num_domains:2 () in
          Fun.protect
            ~finally:(fun () -> Runtime.Pool.teardown pool)
            (fun () ->
              List.fold_left
                (fun acc (bname, fx) ->
                  match acc with
                  | Some _ -> acc
                  | None ->
                      let open Scl.Flat_exec in
                      if
                        not
                          (vec_bitwise (Scl.Flat.to_float_array (fx.fmap (Scale 2.0) fa)) boxed_map)
                      then Some (bname ^ ": fmap differs from boxed map")
                      else if not (Float.equal (fx.ffold Add fa) boxed_fold) then
                        Some (bname ^ ": ffold differs from boxed fold")
                      else if
                        not (vec_bitwise (Scl.Flat.to_float_array (fx.fscan Add fa)) boxed_scan)
                      then Some (bname ^ ": fscan differs from boxed scan")
                      else if not (Float.equal (fx.fmap_fold (Offset 1.0) Add fa) boxed_mf) then
                        Some (bname ^ ": fmap_fold differs from boxed map_fold")
                      else if
                        not
                          (vec_bitwise
                             (Scl.Flat.to_float_array (fx.fmap_scan (Scale 0.5) Add fa))
                             boxed_ms)
                      then Some (bname ^ ": fmap_scan differs from boxed map_scan")
                      else None)
                None
                [ ("seq", Scl.Flat_exec.sequential); ("pool", Scl.Flat_exec.on_pool pool) ]));
      add
        (Printf.sprintf "host-exec flat pipeline = reference n=%d seed=%d" fn case_seed)
        (fun () ->
          let e =
            Transform.Parser.parse_exn "fold fadd . map fdouble . scan fadd . map fhalve . map fincr"
          in
          let v = Transform.Value.Arr (Array.map (fun x -> Transform.Value.Float x) fdata) in
          let expected = Transform.Ast.eval e v in
          let pool = Runtime.Pool.create ~num_domains:2 () in
          Fun.protect
            ~finally:(fun () -> Runtime.Pool.teardown pool)
            (fun () ->
              let host_seq = Transform.Host_exec.eval e v in
              let host_pool =
                Transform.Host_exec.eval ~exec:(Scl.Exec.on_pool pool)
                  ~fx:(Scl.Flat_exec.on_pool pool) e v
              in
              if not (Transform.Value.equal expected host_seq) then
                Some "host flat (seq) differs from reference"
              else if not (Transform.Value.equal expected host_pool) then
                Some "host flat (pool) differs from reference"
              else None));
    done;
    report_checks ~phase:"flat-vs-boxed solvers" (tiers sim @ tiers mc @ List.rev !cases)
    end
  in

  if
    ok_procs && ok_rules && ok_cost && ok_fused && ok_diff && ok_engine && ok_topo && ok_fault
    && ok_search && ok_flat
  then begin
    Printf.printf "diffcheck: all oracles agree (seed %d)\n" !seed;
    exit 0
  end
  else begin
    if !out <> "" then begin
      let oc = open_out !out in
      Printf.fprintf oc "seed: %d\n%s\n" !seed (String.concat "\n---\n" (List.rev !failures));
      close_out oc;
      Printf.printf "wrote counterexample(s) to %s\n" !out
    end;
    exit 1
  end
