(* Tests for the property-based testing engine (lib/prop) and its two
   oracles: engine determinism and shrinking, typed pipeline generation,
   per-rule meaning preservation, injected-fault shrinking, backend
   error-taxonomy agreement, and a differential smoke run incl. the
   multicore pool backend. *)

open Transform

let sim = Machine.Backend.sim ()

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool

(* --- generator engine ------------------------------------------------------- *)

let test_gen_deterministic () =
  let g = Prop.Gen.list_size (Prop.Gen.int_range 0 20) (Prop.Gen.int_range (-50) 50) in
  let a = Prop.Gen.generate ~seed:7 g in
  let b = Prop.Gen.generate ~seed:7 g in
  let c = Prop.Gen.generate ~seed:8 g in
  check Alcotest.(list int) "same seed, same value" a b;
  checkb "different seed differs somewhere"
    (a <> c
    || Prop.Gen.generate ~seed:7 Prop.Gen.bool <> Prop.Gen.generate ~seed:8 Prop.Gen.bool)
    true

let test_int_range_bounds () =
  let rng = Runtime.Xoshiro.of_seed 3 in
  for _ = 1 to 1000 do
    let x = (Prop.Gen.int_range (-5) 17) ~size:10 rng in
    checkb "in range" (x >= -5 && x <= 17) true
  done;
  check Alcotest.int "singleton range" 4 (Prop.Gen.generate ~seed:1 (Prop.Gen.int_range 4 4))

let test_frequency_weights () =
  (* weight-0 alternatives must never be chosen *)
  let g = Prop.Gen.frequency [ (0, Prop.Gen.return `Never); (1, Prop.Gen.return `Always) ] in
  let rng = Runtime.Xoshiro.of_seed 5 in
  for _ = 1 to 200 do
    checkb "never picks weight 0" (g ~size:10 rng = `Always) true
  done

let test_shrink_int () =
  (* greedy re-shrinking from any start must converge to 0 *)
  let rec minimise x fuel =
    if fuel = 0 then x
    else
      match Seq.uncons (Prop.Shrink.int x) with
      | Some (c, _) -> minimise c (fuel - 1)
      | None -> x
  in
  check Alcotest.int "1234 converges" 0 (minimise 1234 100);
  check Alcotest.int "-77 converges" 0 (minimise (-77) 100);
  checkb "0 has no candidates" (Seq.is_empty (Prop.Shrink.int 0)) true

let test_shrink_list_removal () =
  let cands = List.of_seq (Prop.Shrink.list [ 1; 2; 3; 4 ]) in
  checkb "offers the empty list" (List.mem [] cands) true;
  List.iter (fun c -> checkb "candidates are shorter" (List.length c < 4) true) cands

let test_runner_finds_and_shrinks () =
  (* property "x < 10" over 0..1000: must fail and shrink to exactly 10 *)
  let outcome =
    Prop.Runner.check
      ~config:{ Prop.Runner.default with count = 500; max_size = 100; seed = 11 }
      ~shrink:Prop.Shrink.int
      ~gen:(Prop.Gen.int_range 0 1000)
      ~prop:(fun x -> if x < 10 then Prop.Runner.Pass_case else Prop.Runner.Fail_case "too big")
      ()
  in
  match outcome with
  | Prop.Runner.Fail f ->
      check Alcotest.int "shrunk to boundary" 10 f.Prop.Runner.shrunk;
      checkb "original at least boundary" (f.Prop.Runner.original >= 10) true
  | _ -> Alcotest.fail "expected a failure"

let test_runner_pass_and_replay () =
  let gen = Prop.Gen.pair (Prop.Gen.int_range 0 50) (Prop.Gen.int_range 0 50) in
  let outcome =
    Prop.Runner.check
      ~config:{ Prop.Runner.default with count = 50; seed = 9 }
      ~gen
      ~prop:(fun (a, b) -> if a + b = b + a then Prop.Runner.Pass_case else Prop.Runner.Fail_case "!")
      ()
  in
  (match outcome with
  | Prop.Runner.Pass { checked; _ } -> check Alcotest.int "checked all" 50 checked
  | _ -> Alcotest.fail "expected pass");
  (* replay regenerates the exact case from (seed, index, size) *)
  let config = { Prop.Runner.default with seed = 9 } in
  let direct =
    let master = Runtime.Xoshiro.of_seed 9 in
    let rng = ref (Runtime.Xoshiro.split master) in
    for _ = 1 to 3 do
      rng := Runtime.Xoshiro.split master
    done;
    gen ~size:5 !rng
  in
  check
    Alcotest.(pair int int)
    "replay = direct" direct
    (Prop.Runner.replay ~config ~gen ~case_index:3 ~size:5)

(* --- typed pipeline generator ----------------------------------------------- *)

let test_pipeline_gen_well_typed () =
  (* every generated pipeline must evaluate without exceptions *)
  let outcome =
    Prop.Runner.check
      ~config:{ Prop.Runner.default with count = 300; seed = 42 }
      ~gen:(Prop.Pipe_gen.gen ())
      ~prop:(fun c ->
        match Ast.eval (Prop.Pipe_gen.expr c) c.Prop.Pipe_gen.input with
        | _ -> Prop.Runner.Pass_case
        | exception e ->
            Prop.Runner.Fail_case
              (Printf.sprintf "%s on %s" (Printexc.to_string e) (Prop.Pipe_gen.print c)))
      ()
  in
  match outcome with
  | Prop.Runner.Pass _ -> ()
  | Prop.Runner.Fail f -> Alcotest.fail f.Prop.Runner.message
  | Prop.Runner.Gave_up _ -> Alcotest.fail "gave up"

let test_pipeline_gen_covers_widened_cases () =
  (* the widened generator must actually produce float, pair and empty
     inputs (and still mostly ints) *)
  let floats = ref 0 and pairs = ref 0 and ints = ref 0 and empties = ref 0 in
  for seed = 0 to 199 do
    let c = Prop.Gen.generate ~seed (Prop.Pipe_gen.gen ()) in
    match c.Prop.Pipe_gen.input with
    | Value.Arr [||] -> incr empties
    | Value.Arr a -> (
        match a.(0) with
        | Value.Float _ -> incr floats
        | Value.Pair _ -> incr pairs
        | _ -> incr ints)
    | _ -> ()
  done;
  checkb "some float inputs" (!floats > 0) true;
  checkb "some pair inputs" (!pairs > 0) true;
  checkb "some empty inputs" (!empties > 0) true;
  checkb "ints still dominate" (!ints > !floats && !ints > !pairs) true

(* --- rule oracle ------------------------------------------------------------- *)

let rule_test (rule : Rules.rule) () =
  match
    Prop.Oracle.check_rule ~config:{ Prop.Runner.default with count = 100; seed = 42 } rule
  with
  | Prop.Runner.Pass { checked; _ } -> check Alcotest.int "100 firing cases" 100 checked
  | Prop.Runner.Fail f ->
      Alcotest.fail (Fmt.str "%a" (Prop.Runner.pp_failure Prop.Pipe_gen.print) f)
  | Prop.Runner.Gave_up { checked; _ } ->
      Alcotest.fail (Printf.sprintf "gave up after %d cases" checked)

(* --- exhaustive-sweep meta-tests ---------------------------------------------
   The rule-oracle suite below already runs the soundness property
   [eval (rewrite e) = eval e] over every rule in [Rules.all]; these two
   tests keep that sweep honest. *)

let test_rule_fire_counts () =
  (* Meta-test: the firing-case generator must keep a nonzero (indeed
     dominant) fire count for every rule in Rules.all — a rule whose
     cases never fire would make its soundness test vacuous. *)
  List.iter
    (fun (rule : Rules.rule) ->
      let fires = ref 0 in
      for seed = 0 to 99 do
        let c = Prop.Gen.generate ~seed (Prop.Oracle.gen_firing_case rule) in
        if Prop.Oracle.apply_rule_somewhere rule c.Prop.Pipe_gen.chain <> None then incr fires
      done;
      checkb (rule.Rules.rname ^ " fire count nonzero") (!fires > 0) true;
      checkb
        (Printf.sprintf "%s fire rate (%d/100)" rule.Rules.rname !fires)
        (!fires >= 50) true)
    Rules.all

let test_unknown_rule_synthesized_context () =
  (* A rule the pattern generator has never heard of still gets firing
     cases (by bounded rejection sampling), so the sweep stays exhaustive
     when a rule lands without anyone teaching gen_pattern its shape. *)
  let alias = { Rules.map_fusion with Rules.rname = "unknown-to-generator" } in
  let fires = ref 0 in
  for seed = 0 to 49 do
    let c = Prop.Gen.generate ~seed (Prop.Oracle.gen_firing_case alias) in
    if Prop.Oracle.apply_rule_somewhere alias c.Prop.Pipe_gen.chain <> None then incr fires
  done;
  checkb "synthesized contexts fire" (!fires > 0) true;
  match
    Prop.Oracle.check_rule ~config:{ Prop.Runner.default with count = 50; seed = 42 } alias
  with
  | Prop.Runner.Pass _ -> ()
  | Prop.Runner.Fail f ->
      Alcotest.fail (Fmt.str "%a" (Prop.Runner.pp_failure Prop.Pipe_gen.print) f)
  | Prop.Runner.Gave_up { checked; _ } ->
      Alcotest.fail (Printf.sprintf "gave up after %d cases" checked)

let test_injected_fault_shrinks () =
  (* a deliberately broken rotate fusion must be caught and shrink to a
     2-stage chain over a 2-element array *)
  let broken =
    {
      Rules.rname = "rotate-fusion";
      paper = "deliberately broken for the shrinking test";
      apply_at =
        (function
        | Ast.Rotate a :: Ast.Rotate b :: rest -> Some (Ast.Rotate (a + b + 1) :: rest, 1)
        | _ -> None);
    }
  in
  match
    Prop.Oracle.check_rule ~config:{ Prop.Runner.default with count = 200; seed = 42 } broken
  with
  | Prop.Runner.Fail f ->
      let c = f.Prop.Runner.shrunk in
      let n =
        match c.Prop.Pipe_gen.input with Value.Arr a -> Array.length a | _ -> -1
      in
      checkb
        (Printf.sprintf "minimal chain (got %s)" (Prop.Pipe_gen.print c))
        (List.length c.Prop.Pipe_gen.chain = 2)
        true;
      checkb (Printf.sprintf "minimal input (len %d)" n) (n = 2) true;
      checkb "shrinking actually ran" (f.Prop.Runner.shrink_steps > 0) true
  | Prop.Runner.Pass _ -> Alcotest.fail "broken rule not caught"
  | Prop.Runner.Gave_up _ -> Alcotest.fail "gave up"

let test_cost_consistency () =
  match
    Prop.Oracle.check_cost
      ~config:{ Prop.Runner.default with count = 50; seed = 42 }
      ~procs:4 ~tolerance:1.25 ()
  with
  | Prop.Runner.Pass _ | Prop.Runner.Gave_up _ -> ()
  | Prop.Runner.Fail f ->
      Alcotest.fail (Fmt.str "%a" (Prop.Runner.pp_failure Prop.Pipe_gen.print) f)

(* --- host backend ------------------------------------------------------------ *)

let test_host_exec_matches_reference () =
  let pipelines =
    [
      Ast.of_chain [ Ast.Map Fn.incr; Ast.Rotate (-5); Ast.Scan Fn.add ];
      Ast.of_chain [ Ast.Split 3; Ast.Map_nested (Ast.Fold Fn.add) ];
      Ast.of_chain [ Ast.Split 2; Ast.Map_nested (Ast.Map Fn.double); Ast.Combine ];
      Ast.of_chain [ Ast.Send Fn.i_reverse; Ast.Fetch (Fn.i_shift 4); Ast.Fold Fn.imax ];
      Ast.of_chain [ Ast.Iter_for (3, Ast.Map Fn.incr); Ast.Foldr_compose (Fn.sub, Fn.double) ];
    ]
  in
  let input = Value.of_int_array [| 3; -1; 4; 1; 5; -9; 2; 6 |] in
  List.iter
    (fun e ->
      let expected = Ast.eval e input in
      let got = Host_exec.eval e input in
      checkb (Ast.to_string e) (Value.equal expected got) true)
    pipelines

let test_host_exec_optimize_matches_reference () =
  (* ~optimize:true rewrites through Optimizer first; results must not
     change on any defined input *)
  let pipelines =
    [
      Ast.of_chain [ Ast.Map Fn.incr; Ast.Map Fn.double; Ast.Fold Fn.add ];
      Ast.of_chain [ Ast.Map Fn.square; Ast.Map Fn.negate; Ast.Scan Fn.add ];
      Ast.of_chain [ Ast.Rotate 2; Ast.Rotate (-5); Ast.Map Fn.incr ];
      Ast.of_chain [ Ast.Foldr_compose (Fn.add, Fn.double) ];
      Ast.of_chain [ Ast.Split 2; Ast.Map_nested (Ast.Map Fn.incr); Ast.Combine ];
      Ast.of_chain [ Ast.Send Fn.i_reverse; Ast.Map Fn.incr; Ast.Map Fn.double ];
    ]
  in
  let input = Value.of_int_array [| 3; -1; 4; 1; 5; -9; 2; 6 |] in
  List.iter
    (fun e ->
      let expected = Ast.eval e input in
      checkb
        ("optimize=true " ^ Ast.to_string e)
        (Value.equal expected (Host_exec.eval ~optimize:true e input))
        true;
      checkb
        ("optimize=false " ^ Ast.to_string e)
        (Value.equal expected (Host_exec.eval ~optimize:false e input))
        true)
    pipelines

let test_error_taxonomy_agreement () =
  (* all three backends raise Type_error on the same edge inputs (the
     divergences the differential oracle surfaced: empty fold, negative
     iterFor, out-of-range / non-permutation send) *)
  let expect_type_error who f =
    match f () with
    | exception Value.Type_error _ -> ()
    | exception e -> Alcotest.fail (who ^ " raised " ^ Printexc.to_string e)
    | _ -> Alcotest.fail (who ^ " did not raise")
  in
  let empty = Value.Arr [||] in
  let arr = Value.of_int_array [| 1; 2; 3 |] in
  let oob = { Fn.iname = "oob"; iapply = (fun ~n i -> i + n) } in
  let const0 = { Fn.iname = "const(0)"; iapply = (fun ~n:_ _ -> 0) } in
  let cases =
    [
      ("fold empty", Ast.Fold Fn.add, empty);
      ("iterFor -1", Ast.Iter_for (-1, Ast.Map Fn.incr), arr);
      ("send oob", Ast.Send oob, arr);
      ("send non-perm", Ast.Send const0, arr);
      ("fetch oob", Ast.Fetch oob, arr);
      ("split 0", Ast.Split 0, arr);
      ("combine flat", Ast.Combine, arr);
      ("mapn over flat", Ast.Map_nested (Ast.Map Fn.incr), arr);
    ]
  in
  List.iter
    (fun (name, e, v) ->
      expect_type_error ("ref " ^ name) (fun () -> Ast.eval e v);
      expect_type_error ("host " ^ name) (fun () -> Host_exec.eval e v);
      expect_type_error ("sim " ^ name) (fun () -> Spmd_exec.run sim ~procs:2 e v))
    cases

(* --- differential smoke ------------------------------------------------------ *)

let test_differential_smoke () =
  let pool = Runtime.Pool.create ~num_domains:3 () in
  Fun.protect
    ~finally:(fun () -> Runtime.Pool.teardown pool)
    (fun () ->
      let stats = Prop.Oracle.new_stats () in
      match
        Prop.Oracle.check_differential
          ~config:{ Prop.Runner.default with count = 60; seed = 42 }
          ~pool_exec:(Scl.Exec.on_pool pool)
          ~stats ~sim_procs:[ 1; 3 ] ()
      with
      | Prop.Runner.Pass { checked; _ } ->
          check Alcotest.int "checked all" 60 checked;
          checkb "some cases ran on the simulator" (stats.Prop.Oracle.sim_ran > 0) true
      | Prop.Runner.Fail f ->
          Alcotest.fail (Fmt.str "%a" (Prop.Runner.pp_failure Prop.Pipe_gen.print) f)
      | Prop.Runner.Gave_up _ -> Alcotest.fail "gave up")

(* --- fused-primitive oracle -------------------------------------------------- *)

let test_fused_oracle_smoke () =
  let pool = Runtime.Pool.create ~num_domains:3 () in
  Fun.protect
    ~finally:(fun () -> Runtime.Pool.teardown pool)
    (fun () ->
      match
        Prop.Oracle.check_fused
          ~config:{ Prop.Runner.default with count = 100; seed = 42 }
          ~pool_exec:(Scl.Exec.on_pool pool) ()
      with
      | Prop.Runner.Pass { checked; _ } -> check Alcotest.int "checked all" 100 checked
      | Prop.Runner.Fail f ->
          Alcotest.fail (Fmt.str "%a" (Prop.Runner.pp_failure Prop.Oracle.print_fused) f)
      | Prop.Runner.Gave_up _ -> Alcotest.fail "gave up")

let () =
  let rule_suite =
    List.map
      (fun (r : Rules.rule) ->
        Alcotest.test_case ("rule " ^ r.Rules.rname) `Quick (rule_test r))
      Rules.all
  in
  Alcotest.run "prop"
    [
      ( "engine",
        [
          Alcotest.test_case "gen deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "int_range bounds" `Quick test_int_range_bounds;
          Alcotest.test_case "frequency weights" `Quick test_frequency_weights;
          Alcotest.test_case "shrink int" `Quick test_shrink_int;
          Alcotest.test_case "shrink list removal" `Quick test_shrink_list_removal;
          Alcotest.test_case "runner shrinks to boundary" `Quick test_runner_finds_and_shrinks;
          Alcotest.test_case "runner pass + replay" `Quick test_runner_pass_and_replay;
        ] );
      ( "pipeline-gen",
        [
          Alcotest.test_case "well-typed pipelines" `Quick test_pipeline_gen_well_typed;
          Alcotest.test_case "covers floats/pairs/empty" `Quick
            test_pipeline_gen_covers_widened_cases;
        ] );
      ("rule-oracle", rule_suite);
      ( "rule-sweep-meta",
        [
          Alcotest.test_case "per-rule fire count nonzero" `Quick test_rule_fire_counts;
          Alcotest.test_case "unknown rule gets synthesized context" `Quick
            test_unknown_rule_synthesized_context;
        ] );
      ( "fault-injection",
        [
          Alcotest.test_case "broken rule shrinks minimal" `Quick test_injected_fault_shrinks;
          Alcotest.test_case "cost vs simulator" `Quick test_cost_consistency;
        ] );
      ( "host-exec",
        [
          Alcotest.test_case "matches reference" `Quick test_host_exec_matches_reference;
          Alcotest.test_case "optimize matches reference" `Quick
            test_host_exec_optimize_matches_reference;
          Alcotest.test_case "error taxonomy agreement" `Quick test_error_taxonomy_agreement;
        ] );
      ( "differential",
        [ Alcotest.test_case "smoke (seq+pool+sim)" `Quick test_differential_smoke ] );
      ( "fused-oracle",
        [ Alcotest.test_case "smoke (seq+pool)" `Quick test_fused_oracle_smoke ] );
    ]
