(* Cross-backend differential oracle + rule oracle driver.

   Usage:
     diffcheck [--budget N] [--seed S] [--rule-cases N] [--cost-cases N]
               [--search-cases N] [--tolerance F] [--no-pool] [--out FILE]

   Phases:
     0. procs equivalence — phase 5's programs must produce identical
                            values on the simulator and on the
                            forked-process engine [Machine.Procs], and the
                            farm must survive a seeded chaos worker
                            crash on real processes (the crash is a
                            child dying with its sockets) with the dead
                            rank reported in [stats.crashed].  Runs
                            FIRST: OCaml permanently refuses Unix.fork
                            once any other domain has ever been created
                            in the process.
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
     5. engine equivalence — [--engine-cases] seeded inputs per program:
                            hyperquicksort, Cannon, and a collective
                            battery (allreduce/scan/allgather) at
                            p ∈ {1, 2, 4} (grids 1 and 2 for Cannon); the
                            ten other algorithm programs (bitonic,
                            odd-even, sample sort, FFT, Gauss, histogram,
                            k-means, line of sight, n-body, static farm);
                            and one generated pipeline through Spmd_exec
                            per seed (skipped if it raises on the
                            simulator).  Each must produce identical
                            values on the simulator and on the
                            real-domain multicore engine.
                            The forked-process legs of the same programs
                            live in phase 0.
     6. topology cost     — for a hypercube-exchange program
                            (hyperquicksort), the simulated makespan on a
                            Hypercube must not exceed the makespan on a
                            Ring (where cube neighbours are multi-hop), at
                            p ∈ {4, 8} over fixed seeds.
     7. fault injection   — [--fault-cases] seeded chaos schedules: the
                            collective battery (with reduce swept over all
                            roots, non-commutative op) under delay/reorder
                            and straggler chaos must be value-identical to
                            the fault-free run at p ∈ {2, 4, 8} on the
                            simulator (plus one delay case on the real
                            multicore engine); a single worker crash
                            mid-farm must still yield the complete result
                            set (the real-process variant is phase 0);
                            and the zero-fault chaos wrapper must be
                            bit-identical to the unwrapped simulated run.
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
     9. flat-vs-boxed     — [--flat-cases] seeded workloads per solver:
                            the unboxed Bigarray ports of jacobi, heat2d
                            and cg must be bitwise-identical (iteration
                            counts and every solution float) to the boxed
                            oracles at the same process count, on the
                            simulator at p ∈ {1, 2, 4} (heat2d {1, 4})
                            and on the multicore engine at p = 3.  Also
                            the host-flat legs: the unboxed Flat_exec
                            kernels (sequential and pool) vs the boxed
                            Scl skeletons, the Host_exec flat fast path
                            vs the reference interpreter, and the
                            flat-int hyperquicksort vs the boxed
                            simulator program — all bitwise, on dyadic
                            data.

   Workload parameters in phases 5–7 (input lengths, value bounds, matrix
   sizes, chaos probabilities, crash points) are derived from the case
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

(* An SPMD program as a function of the engine.  Its output comes back
   marshalled, so the simulator's and an engine's compare bit for bit. *)
type program = { run : 's. 's Machine.Backend.t -> procs:int -> string }

let marshalled (v, _) = Marshal.to_string v []

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

(* Hand-rolled check for the non-Runner phases (5 and 6): [cases] is a list
   of (label, thunk) pairs; a thunk returns None on success and a
   counterexample description on divergence. *)
let report_checks ~phase (cases : (string * (unit -> string option)) list) : bool =
  let bad =
    List.filter_map
      (fun (label, check) ->
        match check () with
        | None -> None
        | Some detail -> Some (Printf.sprintf "%s: %s" label detail)
        | exception e -> Some (Printf.sprintf "%s: raised %s" label (Printexc.to_string e)))
      cases
  in
  match bad with
  | [] ->
      Printf.printf "ok    %-40s %d cases (0 discarded)\n%!" phase (List.length cases);
      true
  | _ ->
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
        "N seeded inputs per engine-equivalence program (default 3)" );
      ( "--fault-cases",
        Arg.Set_int fault_cases,
        "N seeded chaos schedules for the fault-injection phase (default 3)" );
      ( "--search-cases",
        Arg.Set_int search_cases,
        "N seeded search-vs-greedy + flattening differentials (default 3)" );
      ( "--flat-cases",
        Arg.Set_int flat_cases,
        "N seeded flat-vs-boxed solver differentials (default 3)" );
      ( "--tolerance",
        Arg.Set_float tolerance,
        "F allowed simulated-makespan regression factor (default 1.25)" );
      ( "--only-engines",
        Arg.Set only_engines,
        " run only the engine-equivalence and fault-injection phases (5 and 7)" );
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

  let collective_battery (comm : Machine.Comm.t) =
    let open Machine in
    let p = Comm.size comm in
    let me = Comm.rank comm in
    let reduced = Comm.allreduce comm ( + ) (me + 1) in
    let scanned = Comm.scan comm ( + ) (me + 1) in
    let gathered = Comm.allgather comm (me * me) in
    let transposed = Comm.alltoall comm (Array.init p (fun j -> (me * 100) + j)) in
    Option.map Array.to_list
      (Comm.gather comm ~root:0 (reduced, scanned, gathered, transposed))
  in

  (* Engine equivalence against the simulator, for one real engine: the
     same seeded hyperquicksort, collective battery, Cannon, the ten other
     algorithm programs and a generated pipeline through Spmd_exec must
     give identical values on [Backend.sim] and on [backend].  The
     workload shape is derived from the seed too: a nightly run with a
     random seed explores different lengths/bounds/matrix sizes, not
     merely different data for one fixed shape. *)
  let equivalence_cases (type s) (backend : s Machine.Backend.t) =
    let engine = Machine.Backend.name backend in
    let cases = ref [] in
    let add label f = cases := (label, f) :: !cases in
    let differ what = Some (Printf.sprintf "%s differ between sim and %s" what engine) in
    for k = 0 to !engine_cases - 1 do
      let case_seed = !seed + (1009 * k) in
      let shape = Runtime.Xoshiro.of_seed (case_seed lxor 0x5eed) in
      let len = 64 * (4 + Runtime.Xoshiro.int shape 12) (* 256..1024, all p divide *) in
      let bound = 1_000 + Runtime.Xoshiro.int shape 99_000 in
      let blk = 3 + Runtime.Xoshiro.int shape 6 (* cannon block edge 3..8 *) in
      List.iter
        (fun procs ->
          add
            (Printf.sprintf "hyperquicksort %s p=%d len=%d bound=%d seed=%d" engine procs len
               bound case_seed)
            (fun () ->
              let rng = Runtime.Xoshiro.of_seed case_seed in
              let data = Runtime.Xoshiro.int_array rng ~len ~bound in
              let s, _ = Algorithms.Hyperquicksort.sort sim ~procs data in
              let e, _ = Algorithms.Hyperquicksort.sort backend ~procs data in
              if s = e then None else differ "sorted outputs");
          add
            (Printf.sprintf "collectives %s p=%d seed=%d" engine procs case_seed)
            (fun () ->
              let s, _ = Scl_sim.Spmd.run sim ~procs collective_battery in
              let e, _ = Scl_sim.Spmd.run backend ~procs collective_battery in
              if s = e then None else differ "collective values"))
        [ 1; 2; 4 ];
      List.iter
        (fun grid ->
          add
            (Printf.sprintf "cannon %s grid=%d n=%d seed=%d" engine grid (blk * grid) case_seed)
            (fun () ->
              let n = blk * grid in
              let a = Algorithms.Cannon.random_matrix ~seed:case_seed n in
              let b = Algorithms.Cannon.random_matrix ~seed:(case_seed + 1) n in
              let s, _ = Algorithms.Cannon.multiply sim ~grid a b in
              let e, _ = Algorithms.Cannon.multiply backend ~grid a b in
              if s = e then None else differ "cannon products"))
        [ 1; 2 ];
      let module A = Algorithms in
      let x = Runtime.Xoshiro.of_seed (case_seed lxor 0xa160) in
      let ints = Runtime.Xoshiro.int_array x ~len ~bound in
      let floats = Runtime.Xoshiro.float_array x ~len ~bound:1.0 in
      let signal = A.Fft.random_signal ~seed:case_seed (1 lsl (6 + Runtime.Xoshiro.int x 4)) in
      let a, b = A.Gauss.random_system ~seed:case_seed (8 + Runtime.Xoshiro.int x 24) in
      let k = 2 + Runtime.Xoshiro.int x 3 and per = len / 16 in
      let points, _ = A.Kmeans.blobs ~seed:case_seed ~k ~per_cluster:per in
      let init = Array.init k (fun i -> points.(i * per)) in
      let bodies = A.Nbody.random_bodies ~seed:case_seed (len / 8) in
      let jobs = A.Farm_sim.skewed_spec ~njobs:per ~skew:(2 + Runtime.Xoshiro.int x 8) in
      let procs = 2 + Runtime.Xoshiro.int x 3 (* 2..4; bitonic takes 4 *) in
      List.iter
        (fun (name, procs, p) ->
          add
            (Printf.sprintf "%s %s p=%d len=%d seed=%d" name engine procs len case_seed)
            (fun () -> if p.run sim ~procs = p.run backend ~procs then None else differ name))
        [
          ("bitonic", 4, { run = (fun be ~procs -> marshalled (A.Bitonic.sort be ~procs ints)) });
          ("odd-even", procs, { run = (fun be ~procs -> marshalled (A.Odd_even.sort be ~procs ints)) });
          ( "sample sort",
            procs,
            { run = (fun be ~procs -> marshalled (A.Sample_sort.sort be ~procs ints)) } );
          ("fft", procs, { run = (fun be ~procs -> marshalled (A.Fft.fft be ~procs signal)) });
          ("gauss", procs, { run = (fun be ~procs -> marshalled (A.Gauss.solve be ~procs a b)) });
          ( "histogram",
            procs,
            {
              run =
                (fun be ~procs ->
                  marshalled (A.Histogram.histogram be ~procs ~buckets:k ~lo:0.0 ~hi:1.0 floats));
            } );
          ( "kmeans",
            procs,
            { run = (fun be ~procs -> marshalled (A.Kmeans.run be ~procs ~k points ~init)) } );
          ( "line of sight",
            procs,
            { run = (fun be ~procs -> marshalled (A.Line_of_sight.visible be ~procs floats)) } );
          ( "nbody",
            procs,
            { run = (fun be ~procs -> marshalled (A.Nbody.accelerations be ~procs bodies)) } );
          ( "static farm",
            procs,
            { run = (fun be ~procs -> marshalled (A.Farm_sim.static be ~procs jobs)) } );
        ];
      (* a well-typed generated pipeline inside Spmd_exec's discipline
         (reseeded until it is); a pipeline that raises on the simulator
         is skipped *)
      let rec pipeline s =
        let c = Prop.Gen.generate ~seed:s (Prop.Pipe_gen.gen ()) in
        if Prop.Pipe_gen.spmd_executable c then (c, s) else pipeline (s + 1)
      in
      let c, pseed = pipeline (case_seed lxor 0x919e) in
      let e = Prop.Pipe_gen.expr c in
      add
        (Printf.sprintf "pipeline %s p=%d seed=%d: %s" engine procs pseed
           (Transform.Ast.to_string e))
        (fun () ->
          match Transform.Spmd_exec.run sim ~procs e c.Prop.Pipe_gen.input with
          | exception _ -> None
          | s, _ ->
              let v, _ = Transform.Spmd_exec.run backend ~procs e c.Prop.Pipe_gen.input in
              if compare s v = 0 then None else differ "pipeline values")
    done;
    List.rev !cases
  in

  (* phase 0: forked-process engine equivalence + faults.  This MUST run
     first: OCaml permanently refuses [Unix.fork] once any other domain
     has EVER been created in the process, so every [Machine.Procs] leg
     has to run before the pool phases or any multicore case spawns a
     domain. *)
  let ok_procs =
    let open Machine in
    let cases = ref [] in
    let add label f = cases := (label, f) :: !cases in
    for k = 0 to !fault_cases - 1 do
      let case_seed = !seed + (1013 * k) in
      let shape = Runtime.Xoshiro.of_seed (case_seed lxor 0x9c5) in
      let crash_op = 1 + Runtime.Xoshiro.int shape 10 in
      add
        (Printf.sprintf "farm worker crash procs op=%d seed=%d" crash_op case_seed)
        (fun () ->
          (* a chaos crash on this engine is a forked child dying with
             its sockets; recovery is the master's grace timeouts +
             re-dealing over the live pipes.  Jobs take a couple of real
             milliseconds: instant ones let the first workers drain the
             queue before the victim reaches its crash point, and then no
             crash happens at all. *)
          let njobs = 24 + Runtime.Xoshiro.int shape 24 in
          let spec = Algorithms.Farm_sim.skewed_spec ~njobs ~skew:6 in
          let spec =
            {
              spec with
              run =
                (fun i ->
                  Unix.sleepf 0.002;
                  spec.run i);
            }
          in
          let victim = 1 + Runtime.Xoshiro.int shape 3 in
          let chaos = { Chaos.none with Chaos.crashes = [ (victim, crash_op) ] } in
          let got, stats =
            Algorithms.Farm_sim.dynamic Backend.procs ~procs:4 ~grace:0.5 ~chaos spec
          in
          if got <> Array.init njobs (fun i -> i * i) then
            Some "procs farm lost or corrupted results under a worker crash"
          else if stats.Procs.crashed <> [ victim ] then
            Some
              (Printf.sprintf "procs farm crash list wrong: expected [%d], got [%s]" victim
                 (String.concat "; " (List.map string_of_int stats.Procs.crashed)))
          else None)
    done;
    report_checks ~phase:"procs-equivalence + faults"
      (equivalence_cases Backend.procs @ List.rev !cases)
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
  let ok_engine =
    report_checks ~phase:"engine-equivalence" (equivalence_cases mc)
  in

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
     crash.  All chaos parameters derive from the case seed. *)
  let ok_fault =
    let open Machine in
    (* every collective, with reduce swept over ALL roots using a
       non-commutative operator — the rotated-root ordering trap *)
    let chaos_battery (comm : Comm.t) =
      let p = Comm.size comm in
      let me = Comm.rank comm in
      let reduces = List.init p (fun root -> Comm.reduce comm ~root ( ^ ) (string_of_int me)) in
      let ar = Comm.allreduce comm ( ^ ) (string_of_int me) in
      let sc = Comm.scan comm ( ^ ) (string_of_int me) in
      let ag = Comm.allgather comm (me * me) in
      let at = Comm.alltoall comm (Array.init p (fun j -> (me * 100) + j)) in
      Option.map Array.to_list (Comm.gather comm ~root:0 (reduces, ar, sc, ag, at))
    in
    let cases = ref [] in
    let add label f = cases := (label, f) :: !cases in
    for k = 0 to !fault_cases - 1 do
      let case_seed = !seed + (1013 * k) in
      let shape = Runtime.Xoshiro.of_seed (case_seed lxor 0xfa17) in
      let prob = 0.1 +. (0.8 *. Runtime.Xoshiro.float shape 1.0) in
      let max_hold = 1 + Runtime.Xoshiro.int shape 4 in
      let stall = 1e-4 +. Runtime.Xoshiro.float shape 1e-3 in
      let crash_op = 1 + Runtime.Xoshiro.int shape 10 in
      List.iter
        (fun procs ->
          add
            (Printf.sprintf "chaos-delay p=%d prob=%.2f hold=%d seed=%d" procs prob max_hold
               case_seed)
            (fun () ->
              let bare, _ = Scl_sim.Spmd.run sim ~procs chaos_battery in
              let spec = Chaos.delays ~seed:case_seed ~prob ~max_hold () in
              let v, _ = Scl_sim.Spmd.run sim ~procs ~chaos:spec chaos_battery in
              if v = bare then None else Some "delay chaos changed collective values");
          add
            (Printf.sprintf "chaos-straggler p=%d stall=%.2gs seed=%d" procs stall case_seed)
            (fun () ->
              let bare, _ = Scl_sim.Spmd.run sim ~procs chaos_battery in
              let straggler = 1 + Runtime.Xoshiro.int shape (procs - 1) in
              let spec = { Chaos.none with Chaos.stalls = [ (straggler, stall) ] } in
              let v, _ = Scl_sim.Spmd.run sim ~procs ~chaos:spec chaos_battery in
              if v = bare then None else Some "straggler chaos changed collective values"))
        [ 2; 4; 8 ];
      add
        (Printf.sprintf "chaos-delay multicore p=4 seed=%d" case_seed)
        (fun () ->
          let bare, _ = Scl_sim.Spmd.run mc ~procs:4 chaos_battery in
          let spec = Chaos.delays ~seed:case_seed ~prob ~max_hold () in
          let v, _ = Scl_sim.Spmd.run mc ~procs:4 ~chaos:spec chaos_battery in
          if v = bare then None else Some "delay chaos changed multicore values");
      add
        (Printf.sprintf "farm worker crash op=%d seed=%d" crash_op case_seed)
        (fun () ->
          let njobs = 24 + Runtime.Xoshiro.int shape 24 in
          let spec = Algorithms.Farm_sim.skewed_spec ~njobs ~skew:6 in
          let victim = 1 + Runtime.Xoshiro.int shape 3 in
          let chaos = { Chaos.none with Chaos.crashes = [ (victim, crash_op) ] } in
          let got, _ = Algorithms.Farm_sim.dynamic sim ~procs:4 ~grace:0.5 ~chaos spec in
          if got = Array.init njobs (fun i -> i * i) then None
          else Some "farm lost or corrupted results under a worker crash");
      add
        (Printf.sprintf "zero-fault wrap bit-identical seed=%d" case_seed)
        (fun () ->
          let bare, s0 = Scl_sim.Spmd.run sim ~procs:4 chaos_battery in
          let v, s1 = Scl_sim.Spmd.run sim ~procs:4 ~chaos:Chaos.none chaos_battery in
          if v = bare && s0.Sim.makespan = s1.Sim.makespan && s0.Sim.total_msgs = s1.Sim.total_msgs
          then None
          else
            Some
              (Printf.sprintf "wrapped run diverged: makespan %.9g vs %.9g, msgs %d vs %d"
                 s0.Sim.makespan s1.Sim.makespan s0.Sim.total_msgs s1.Sim.total_msgs))
    done;
    report_checks ~phase:"fault-injection" (List.rev !cases)
  in

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

  (* phase 9: flat-vs-boxed differential — the unboxed Bigarray ports of
     jacobi/heat2d/cg against their boxed oracles at the same process
     count.  Same block geometry and local summation order, so the
     comparison is bitwise float equality on every solution component and
     exact equality on iteration counts — not an epsilon check.  Workload
     sizes and data derive from the case seed. *)
  let ok_flat =
    if not full then true
    else begin
    let vec_bitwise a b =
      Array.length a = Array.length b && Array.for_all2 Float.equal a b
    in
    let diverged label (r0_it, r0_sol) (r1_it, r1_sol) =
      if r0_it <> r1_it then
        Some (Printf.sprintf "%s: iterations %d (boxed) vs %d (flat)" label r0_it r1_it)
      else if not (vec_bitwise r0_sol r1_sol) then
        Some (label ^ ": solutions differ bitwise")
      else None
    in
    let cases = ref [] in
    let add label f = cases := (label, f) :: !cases in
    for k = 0 to !flat_cases - 1 do
      let case_seed = !seed + (1019 * k) in
      let shape = Runtime.Xoshiro.of_seed (case_seed lxor 0xf1a7) in
      let jn = 8 + Runtime.Xoshiro.int shape 56 in
      (* even: the boxed oracle decomposes on a qxq grid, so q=2 must
         divide the heat2d dimension at p=4 *)
      let hn = 2 * (3 + Runtime.Xoshiro.int shape 5) in
      let cn = 8 + Runtime.Xoshiro.int shape 40 in
      let rng = Runtime.Xoshiro.of_seed case_seed in
      let jf = Array.init jn (fun _ -> Runtime.Xoshiro.float rng 4.0 -. 2.0) in
      let hf = Array.init hn (fun _ -> Array.init hn (fun _ -> Runtime.Xoshiro.float rng 2.0)) in
      let cb = Array.init cn (fun _ -> Runtime.Xoshiro.float rng 2.0 -. 1.0) in
      List.iter
        (fun procs ->
          add
            (Printf.sprintf "jacobi flat=boxed sim p=%d n=%d seed=%d" procs jn case_seed)
            (fun () ->
              let r0, _ =
                Algorithms.Jacobi.solve sim ~procs ~tol:1e-7 jf ~left:0.5 ~right:(-0.25)
              in
              let r1, _ =
                Algorithms.Jacobi.solve_flat sim ~procs ~tol:1e-7 jf ~left:0.5 ~right:(-0.25)
              in
              diverged "jacobi"
                (r0.Algorithms.Jacobi.iterations, r0.Algorithms.Jacobi.solution)
                (r1.Algorithms.Jacobi.iterations, r1.Algorithms.Jacobi.solution));
          add
            (Printf.sprintf "cg flat=boxed sim p=%d n=%d seed=%d" procs cn case_seed)
            (fun () ->
              let r0, _ = Algorithms.Cg.solve sim ~procs ~tol:1e-10 cb in
              let r1, _ = Algorithms.Cg.solve_flat sim ~procs ~tol:1e-10 cb in
              diverged "cg"
                (r0.Algorithms.Cg.iterations, r0.Algorithms.Cg.solution)
                (r1.Algorithms.Cg.iterations, r1.Algorithms.Cg.solution)))
        [ 1; 2; 4 ];
      List.iter
        (fun procs ->
          add
            (Printf.sprintf "heat2d flat=boxed sim p=%d n=%d seed=%d" procs hn case_seed)
            (fun () ->
              let r0, _ = Algorithms.Heat2d.solve sim ~procs ~tol:1e-6 hf in
              let r1, _ = Algorithms.Heat2d.solve_flat sim ~procs ~tol:1e-6 hf in
              if r0.Algorithms.Heat2d.iterations <> r1.Algorithms.Heat2d.iterations then
                Some
                  (Printf.sprintf "heat2d: iterations %d (boxed) vs %d (flat)"
                     r0.Algorithms.Heat2d.iterations r1.Algorithms.Heat2d.iterations)
              else if
                not
                  (Array.for_all2 vec_bitwise r0.Algorithms.Heat2d.solution
                     r1.Algorithms.Heat2d.solution)
              then Some "heat2d: solutions differ bitwise"
              else None))
        [ 1; 4 ];
      add
        (Printf.sprintf "jacobi flat multicore=sim p=3 n=%d seed=%d" jn case_seed)
        (fun () ->
          let r0, _ =
            Algorithms.Jacobi.solve_flat sim ~procs:3 ~tol:1e-7 jf ~left:0.5 ~right:(-0.25)
          in
          let r1, _ =
            Algorithms.Jacobi.solve_flat mc ~procs:3 ~tol:1e-7 jf ~left:0.5 ~right:(-0.25)
          in
          diverged "jacobi multicore"
            (r0.Algorithms.Jacobi.iterations, r0.Algorithms.Jacobi.solution)
            (r1.Algorithms.Jacobi.iterations, r1.Algorithms.Jacobi.solution));
      add
        (Printf.sprintf "cg flat multicore=sim p=3 n=%d seed=%d" cn case_seed)
        (fun () ->
          let r0, _ = Algorithms.Cg.solve_flat sim ~procs:3 ~tol:1e-10 cb in
          let r1, _ = Algorithms.Cg.solve_flat mc ~procs:3 ~tol:1e-10 cb in
          diverged "cg multicore"
            (r0.Algorithms.Cg.iterations, r0.Algorithms.Cg.solution)
            (r1.Algorithms.Cg.iterations, r1.Algorithms.Cg.solution));
      (* host-flat legs: the unboxed Flat_exec kernels (sequential and
         pool) against the boxed Scl skeletons, the Host_exec flat fast
         path against the reference interpreter, and the flat-int
         hyperquicksort against the boxed simulator program.  Dyadic data
         keeps parallel fadd reassociation exact, so every comparison is
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
      add
        (Printf.sprintf "hyperquicksort flatint=boxed sim p=4 seed=%d" case_seed)
        (fun () ->
          let sdata =
            Array.init (64 + Runtime.Xoshiro.int rng 192) (fun _ -> Runtime.Xoshiro.int rng 10_000)
          in
          let r0, _ = Algorithms.Hyperquicksort.sort sim ~procs:4 sdata in
          let r1, _ = Algorithms.Hyperquicksort.sort_flatint sim ~procs:4 sdata in
          if r0 <> r1 then Some "flat-int sort differs from boxed" else None)
    done;
    report_checks ~phase:"flat-vs-boxed solvers" (List.rev !cases)
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
