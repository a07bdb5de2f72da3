(* Tests for the observability layer: JSON codec, counters, histograms,
   span timers, disabled-mode no-ops, the bench artifact schema, and the
   Chrome trace_event export.

   The obs switch is global mutable state; every test that flips it
   restores "disabled" on the way out so ordering never matters. *)

let with_obs_enabled f =
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

(* --- JSON codec --------------------------------------------------------- *)

let roundtrip v =
  match Obs.Json.of_string (Obs.Json.to_string v) with
  | Ok v' -> v'
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e

let test_json_roundtrip () =
  let open Obs.Json in
  let v =
    Obj
      [
        ("name", String "bench \"one\"\n\ttab");
        ("n", Int 100_000);
        ("neg", Int (-42));
        ("time", Float 0.048435);
        ("tiny", Float 1.5e-300);
        ("big", Float 1.234567890123e200);
        ("flag", Bool true);
        ("nothing", Null);
        ("empty_list", List []);
        ("empty_obj", Obj []);
        ("nested", List [ Int 1; List [ Float 2.5; Bool false ]; Obj [ ("k", Null) ] ]);
      ]
  in
  Alcotest.(check bool) "structural round-trip" true (roundtrip v = v);
  (* Pretty output parses back to the same tree too. *)
  match of_string (to_string ~pretty:true v) with
  | Ok v' -> Alcotest.(check bool) "pretty round-trip" true (v' = v)
  | Error e -> Alcotest.failf "pretty parse failed: %s" e

let test_json_float_fidelity () =
  List.iter
    (fun f ->
      match roundtrip (Obs.Json.Float f) with
      | Obs.Json.Float f' -> Alcotest.(check (float 0.0)) "exact float" f f'
      | _ -> Alcotest.fail "float did not parse as float")
    [ 0.1; 1.0 /. 3.0; 1e-17; 123456.789; Float.max_float; Float.min_float ]

let test_json_unicode () =
  (* \u escape decoding, including a surrogate pair. *)
  match Obs.Json.of_string {|"caf\u00e9 \ud83d\ude00"|} with
  | Ok (Obs.Json.String s) -> Alcotest.(check string) "utf8 decode" "caf\xc3\xa9 \xf0\x9f\x98\x80" s
  | Ok _ -> Alcotest.fail "not a string"
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_errors () =
  let bad = [ "{"; "[1,"; "tru"; "\"unterminated"; "{\"a\" 1}"; "[1] garbage"; "\"\\ud800\"" ] in
  List.iter
    (fun s ->
      match Obs.Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted malformed JSON: %s" s
      | Error _ -> ())
    bad

let test_json_accessors () =
  let open Obs.Json in
  let v = Obj [ ("a", Int 3); ("b", Float 2.5); ("c", String "x") ] in
  Alcotest.(check (option int)) "mem_int" (Some 3) (mem_int "a" v);
  Alcotest.(check (option (float 0.0))) "int as float" (Some 3.0) (mem_float "a" v);
  Alcotest.(check (option (float 0.0))) "mem_float" (Some 2.5) (mem_float "b" v);
  Alcotest.(check (option string)) "mem_string" (Some "x") (mem_string "c" v);
  Alcotest.(check (option int)) "absent" None (mem_int "zzz" v)

(* --- counters ----------------------------------------------------------- *)

let test_counter_semantics () =
  with_obs_enabled (fun () ->
      let c = Obs.Counter.make "test.counter" in
      Obs.Counter.reset c;
      Obs.Counter.incr c;
      Obs.Counter.incr c;
      Obs.Counter.add c 40;
      Alcotest.(check int) "incr + add" 42 (Obs.Counter.value c);
      Obs.Counter.reset c;
      Alcotest.(check int) "reset" 0 (Obs.Counter.value c);
      (* make is idempotent: same registered counter comes back. *)
      let c' = Obs.Counter.make "test.counter" in
      Obs.Counter.incr c';
      Alcotest.(check int) "same counter via make" 1 (Obs.Counter.value c))

let test_counter_parallel () =
  with_obs_enabled (fun () ->
      let c = Obs.Counter.make "test.counter.par" in
      Obs.Counter.reset c;
      let per_domain = 10_000 in
      let domains =
        Array.init 4 (fun _ ->
            Domain.spawn (fun () ->
                for _ = 1 to per_domain do
                  Obs.Counter.incr c
                done))
      in
      Array.iter Domain.join domains;
      Alcotest.(check int) "no lost increments" (4 * per_domain) (Obs.Counter.value c))

let test_disabled_is_noop () =
  Obs.disable ();
  let c = Obs.Counter.make "test.counter.off" in
  let h = Obs.Histogram.make "test.hist.off" in
  Obs.Counter.reset c;
  Obs.Histogram.reset h;
  Obs.Counter.incr c;
  Obs.Counter.add c 100;
  Obs.Histogram.record h 5;
  Alcotest.(check int) "counter untouched" 0 (Obs.Counter.value c);
  Alcotest.(check int) "histogram untouched" 0 (Obs.Histogram.count h);
  (* Spans: thunk still runs, nothing recorded, depth untouched. *)
  let s = Obs.Span.make "test.span.off" in
  let r = Obs.Span.timed s (fun () -> 17) in
  Alcotest.(check int) "span passes value through" 17 r;
  Alcotest.(check int) "span recorded nothing" 0 (Obs.Span.count s);
  Alcotest.(check int) "depth is zero" 0 (Obs.Span.depth ())

(* --- histograms --------------------------------------------------------- *)

let test_histogram_buckets () =
  let open Obs.Histogram in
  Alcotest.(check int) "bucket of 0" 0 (bucket_of 0);
  Alcotest.(check int) "bucket of 1" 1 (bucket_of 1);
  Alcotest.(check int) "bucket of 2" 2 (bucket_of 2);
  Alcotest.(check int) "bucket of 3" 2 (bucket_of 3);
  Alcotest.(check int) "bucket of 4" 3 (bucket_of 4);
  Alcotest.(check int) "bucket of 1023" 10 (bucket_of 1023);
  Alcotest.(check int) "bucket of 1024" 11 (bucket_of 1024)

let test_histogram_semantics () =
  with_obs_enabled (fun () ->
      let h = Obs.Histogram.make ~unit_:"ns" "test.hist" in
      Obs.Histogram.reset h;
      List.iter (Obs.Histogram.record h) [ 0; 1; 3; 100; 100; 7_000 ];
      Alcotest.(check int) "count" 6 (Obs.Histogram.count h);
      Alcotest.(check int) "sum" 7204 (Obs.Histogram.sum h);
      Alcotest.(check int) "min" 0 (Obs.Histogram.min_value h);
      Alcotest.(check int) "max" 7000 (Obs.Histogram.max_value h);
      Alcotest.(check (float 1e-9)) "mean" (7204.0 /. 6.0) (Obs.Histogram.mean h);
      Obs.Histogram.record h (-5);
      Alcotest.(check int) "negative clamps to 0" 0 (Obs.Histogram.min_value h);
      let total_in_buckets =
        List.fold_left (fun acc (_, _, n) -> acc + n) 0 (Obs.Histogram.nonzero_buckets h)
      in
      Alcotest.(check int) "buckets account for every sample" 7 total_in_buckets;
      List.iter
        (fun (lo, hi, _) ->
          if lo > hi then Alcotest.failf "bucket bound inversion: lo=%d hi=%d" lo hi)
        (Obs.Histogram.nonzero_buckets h))

(* --- spans -------------------------------------------------------------- *)

let test_span_nesting () =
  with_obs_enabled (fun () ->
      let outer = Obs.Span.make "test.span.outer" in
      let inner = Obs.Span.make "test.span.inner" in
      Alcotest.(check int) "depth 0 outside" 0 (Obs.Span.depth ());
      let observed_depths =
        Obs.Span.timed outer (fun () ->
            let d1 = Obs.Span.depth () in
            let d2 = Obs.Span.timed inner (fun () -> Obs.Span.depth ()) in
            (d1, d2))
      in
      Alcotest.(check (pair int int)) "nesting depths" (1, 2) observed_depths;
      Alcotest.(check int) "depth restored" 0 (Obs.Span.depth ());
      Alcotest.(check int) "outer count" 1 (Obs.Span.count outer);
      Alcotest.(check int) "inner count" 1 (Obs.Span.count inner);
      if Obs.Span.total_ns outer < Obs.Span.total_ns inner then
        Alcotest.fail "outer span total must dominate nested inner span")

let test_span_exception_safe () =
  with_obs_enabled (fun () ->
      let s = Obs.Span.make "test.span.exn" in
      (try Obs.Span.timed s (fun () -> failwith "boom") with Failure _ -> ());
      Alcotest.(check int) "span recorded despite exception" 1 (Obs.Span.count s);
      Alcotest.(check int) "depth restored after exception" 0 (Obs.Span.depth ()))

(* --- instrumented layers ------------------------------------------------ *)

let test_exec_instrumented () =
  with_obs_enabled (fun () ->
      let before = Option.value ~default:0 (Obs.Metrics.counter_value "exec.sequential.calls") in
      let pa = Scl.Par_array.init 1000 (fun i -> i) in
      ignore (Scl.map (fun x -> x + 1) pa);
      ignore (Scl.fold ( + ) pa);
      ignore (Scl.scan ( + ) pa);
      let after = Option.value ~default:0 (Obs.Metrics.counter_value "exec.sequential.calls") in
      if after - before < 3 then
        Alcotest.failf "expected >= 3 instrumented exec calls, got %d" (after - before);
      match Obs.Metrics.histogram_snapshot "exec.sequential.pmap" with
      | None -> Alcotest.fail "exec.sequential.pmap span not registered"
      | Some hs ->
          if hs.Obs.Metrics.hs_count < 1 then Alcotest.fail "pmap span recorded no samples";
          Alcotest.(check string) "span unit" "ns" hs.Obs.Metrics.hs_unit)

let test_map_compose_one_pass () =
  (* map_compose is one pmap of the composed function: one span sample and
     one exec call, where map . map would record two of each *)
  with_obs_enabled (fun () ->
      let pa = Scl.Par_array.init 100 (fun i -> i) in
      ignore (Scl.map Fun.id pa);
      let calls () = Option.value ~default:0 (Obs.Metrics.counter_value "exec.sequential.calls") in
      let samples () =
        match Obs.Metrics.histogram_snapshot "exec.sequential.pmap" with
        | None -> Alcotest.fail "exec.sequential.pmap span not registered"
        | Some hs -> hs.Obs.Metrics.hs_count
      in
      let c0 = calls () and s0 = samples () in
      let got = Scl.map_compose (fun x -> x + 1) (fun x -> x * 2) pa in
      Alcotest.(check (list int)) "value" (List.init 100 (fun i -> (2 * i) + 1))
        (Scl.Par_array.to_list got);
      Alcotest.(check int) "one exec call" 1 (calls () - c0);
      Alcotest.(check int) "one pmap sample" 1 (samples () - s0))

let test_sim_counters () =
  with_obs_enabled (fun () ->
      Obs.reset ();
      let data = Array.init 256 (fun i -> (i * 37) mod 101) in
      let _, stats = Algorithms.Hyperquicksort.sort (Machine.Backend.sim ()) ~procs:4 data in
      let counter name = Option.value ~default:0 (Obs.Metrics.counter_value name) in
      Alcotest.(check int) "sim.runs" 1 (counter "sim.runs");
      Alcotest.(check int) "sim.msgs matches stats" stats.Machine.Sim.total_msgs (counter "sim.msgs");
      Alcotest.(check int) "sim.bytes matches stats" stats.Machine.Sim.total_bytes
        (counter "sim.bytes");
      match Obs.Metrics.histogram_snapshot "sim.makespan_us" with
      | None -> Alcotest.fail "sim.makespan_us not registered"
      | Some hs -> Alcotest.(check int) "one makespan sample" 1 hs.Obs.Metrics.hs_count)

let test_pool_stats () =
  let pool = Runtime.Pool.create ~num_domains:2 () in
  Fun.protect
    ~finally:(fun () -> Runtime.Pool.teardown pool)
    (fun () ->
      let acc = Atomic.make 0 in
      Runtime.Pool.parallel_for ~grain:16 pool ~lo:0 ~hi:10_000 (fun _ -> Atomic.incr acc);
      Alcotest.(check int) "work all done" 10_000 (Atomic.get acc);
      let s = Runtime.Pool.stats pool in
      if s.Runtime.Pool.total_submitted <= 0 then Alcotest.fail "no tasks submitted?";
      if s.Runtime.Pool.total_tasks < s.Runtime.Pool.total_submitted then
        Alcotest.failf "tasks run (%d) < submitted (%d): lost tasks"
          s.Runtime.Pool.total_tasks s.Runtime.Pool.total_submitted;
      Alcotest.(check int) "2 workers reported" 2 (Array.length s.Runtime.Pool.per_worker))

let test_pool_publish_obs () =
  with_obs_enabled (fun () ->
      Obs.reset ();
      let pool = Runtime.Pool.create ~num_domains:2 () in
      let p = Runtime.Pool.async pool (fun () -> 21 * 2) in
      Alcotest.(check int) "result" 42 (Runtime.Pool.await pool p);
      Runtime.Pool.teardown pool;
      match Obs.Metrics.counter_value "pool.submitted" with
      | Some n when n >= 1 -> ()
      | Some n -> Alcotest.failf "pool.submitted = %d after teardown" n
      | None -> Alcotest.fail "pool.submitted not registered")

(* --- chrome trace export ------------------------------------------------ *)

let test_chrome_trace () =
  let trace = Machine.Trace.create () in
  let data = Array.init 64 (fun i -> (i * 31) mod 97) in
  let _ = Algorithms.Hyperquicksort.sort (Machine.Backend.sim ~trace ()) ~procs:4 data in
  let json = Machine.Trace.to_chrome trace in
  (* Serialise and re-parse: the artifact on disk must be valid JSON. *)
  match Obs.Json.of_string (Obs.Json.to_string json) with
  | Error e -> Alcotest.failf "chrome trace is not valid JSON: %s" e
  | Ok (Obs.Json.List events) ->
      if List.length events < 8 then Alcotest.fail "suspiciously few trace events";
      let phases = ref [] in
      List.iter
        (fun e ->
          let ph =
            match Obs.Json.mem_string "ph" e with
            | Some ph -> ph
            | None -> Alcotest.fail "event missing \"ph\""
          in
          phases := ph :: !phases;
          if Obs.Json.mem_int "pid" e = None then Alcotest.fail "event missing \"pid\"";
          if Obs.Json.mem_int "tid" e = None then Alcotest.fail "event missing \"tid\"";
          if ph <> "M" && Obs.Json.mem_float "ts" e = None then
            Alcotest.fail "event missing \"ts\"";
          if ph = "X" && Obs.Json.mem_float "dur" e = None then
            Alcotest.fail "complete event missing \"dur\"")
        events;
      if not (List.mem "X" !phases) then Alcotest.fail "no work (X) events in trace"
  | Ok _ -> Alcotest.fail "chrome trace is not a JSON array"

(* --- bench artifact schema ---------------------------------------------- *)

let sample_result name median =
  {
    Obs.Artifact.name;
    n = 1000;
    procs = 8;
    backend = "sim-ap1000";
    runs = 3;
    median_s = median;
    min_s = median *. 0.9;
    counters = [ ("sim.msgs", 120.0); ("sim.bytes", 4096.0) ];
  }

let test_artifact_roundtrip () =
  let file =
    Obs.Artifact.make ~created_unix:1_700_000_000.0 ~smoke:true
      ~host:[ ("cores", "4"); ("ocaml", Sys.ocaml_version) ]
      [ sample_result "a/sim" 0.5; sample_result "b/pool" 0.125 ]
  in
  match Obs.Artifact.of_json (Obs.Artifact.to_json file) with
  | Error e -> Alcotest.failf "artifact round-trip failed: %s" e
  | Ok file' ->
      Alcotest.(check string) "schema" Obs.Artifact.schema_version file'.Obs.Artifact.schema;
      Alcotest.(check bool) "smoke" true file'.Obs.Artifact.smoke;
      Alcotest.(check int) "results" 2 (List.length file'.Obs.Artifact.results);
      let r = List.hd file'.Obs.Artifact.results in
      Alcotest.(check string) "name" "a/sim" r.Obs.Artifact.name;
      Alcotest.(check (float 0.0)) "median" 0.5 r.Obs.Artifact.median_s;
      Alcotest.(check int) "counters survive" 2 (List.length r.Obs.Artifact.counters)

let test_artifact_schema_guard () =
  match Obs.Artifact.of_json (Obs.Json.Obj [ ("schema", Obs.Json.String "scl-bench/999") ]) with
  | Ok _ -> Alcotest.fail "accepted mismatched schema"
  | Error _ -> ()

let test_artifact_compare () =
  let baseline =
    Obs.Artifact.make ~smoke:true ~host:[]
      [ sample_result "same" 1.0; sample_result "slower" 1.0; sample_result "faster" 1.0;
        sample_result "gone" 1.0 ]
  in
  let candidate =
    Obs.Artifact.make ~smoke:true ~host:[]
      [ sample_result "same" 1.05; sample_result "slower" 1.6; sample_result "faster" 0.4;
        sample_result "new" 1.0 ]
  in
  let comparisons, missing, added =
    Obs.Artifact.compare_files ~threshold:0.25 ~baseline ~candidate ()
  in
  let verdict name =
    (List.find (fun c -> c.Obs.Artifact.bench = name) comparisons).Obs.Artifact.verdict
  in
  Alcotest.(check bool) "same ok" true (verdict "same" = Obs.Artifact.Unchanged);
  Alcotest.(check bool) "slower regresses" true (verdict "slower" = Obs.Artifact.Regression);
  Alcotest.(check bool) "faster improves" true (verdict "faster" = Obs.Artifact.Improvement);
  Alcotest.(check (list string)) "missing" [ "gone" ] missing;
  Alcotest.(check (list string)) "added" [ "new" ] added;
  Alcotest.(check bool) "any_regression" true (Obs.Artifact.any_regression comparisons)

let test_median () =
  Alcotest.(check (float 0.0)) "odd" 2.0 (Obs.Artifact.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.(check (float 0.0)) "even" 2.5 (Obs.Artifact.median [| 4.0; 1.0; 2.0; 3.0 |]);
  Alcotest.(check (float 0.0)) "single" 7.0 (Obs.Artifact.median [| 7.0 |])

(* --- histogram quantiles ------------------------------------------------ *)

let test_histogram_quantiles () =
  with_obs_enabled (fun () ->
      let h = Obs.Histogram.make ~unit_:"us" "test.quant" in
      Obs.Histogram.reset h;
      (* empty: all quantiles are 0 *)
      Alcotest.(check (float 0.0)) "empty" 0.0 (Obs.Histogram.quantile h 0.5);
      for v = 1 to 100 do
        Obs.Histogram.record h v
      done;
      (* log2 buckets quantize, so check interval containment plus the
         exact clamped edges (min for q=0, max for q=1) *)
      let q50 = Obs.Histogram.quantile h 0.5 in
      Alcotest.(check bool) "p50 in [32,64]" true (q50 >= 32.0 && q50 <= 64.0);
      let q99 = Obs.Histogram.quantile h 0.99 in
      Alcotest.(check bool) "p99 in [64,100]" true (q99 >= 64.0 && q99 <= 100.0);
      Alcotest.(check (float 0.0)) "q=0 clamps to min" 1.0 (Obs.Histogram.quantile h 0.0);
      Alcotest.(check (float 0.0)) "q=1 clamps to max" 100.0 (Obs.Histogram.quantile h 1.0);
      (match Obs.Histogram.quantile h 1.5 with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "q outside [0,1] must be rejected");
      (* monotone in q *)
      let prev = ref 0.0 in
      List.iter
        (fun q ->
          let v = Obs.Histogram.quantile h q in
          Alcotest.(check bool) "monotone" true (v >= !prev);
          prev := v)
        [ 0.0; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ];
      (* a snapshot answers the same quantile queries as the live histogram *)
      match Obs.Metrics.histogram_snapshot "test.quant" with
      | None -> Alcotest.fail "snapshot missing"
      | Some hs ->
          List.iter
            (fun q ->
              Alcotest.(check (float 0.0)) "snapshot agrees"
                (Obs.Histogram.quantile h q)
                (Obs.Metrics.snapshot_quantile hs q))
            [ 0.0; 0.5; 0.95; 1.0 ])

(* --- strict sim gate ---------------------------------------------------- *)

let host_result name median =
  { (sample_result name median) with Obs.Artifact.backend = "pool" }

let test_strict_sim_violations () =
  Alcotest.(check bool) "sim backend recognized" true
    (Obs.Artifact.is_sim_backend (sample_result "x" 1.0));
  Alcotest.(check bool) "host backend not" false
    (Obs.Artifact.is_sim_backend (host_result "x" 1.0));
  let baseline =
    Obs.Artifact.make ~smoke:true ~host:[]
      [ sample_result "steady" 1.0; sample_result "drifter" 1.0; sample_result "vanishing" 1.0;
        host_result "noisy" 1.0 ]
  in
  let candidate =
    Obs.Artifact.make ~smoke:true ~host:[]
      [ sample_result "steady" 1.0;
        sample_result "drifter" (1.0 +. 1e-12);
        sample_result "appearing" 1.0;
        (* host entries may drift or vanish freely *)
        host_result "noisy" 57.0 ]
  in
  let vs = Obs.Artifact.strict_sim_violations ~baseline ~candidate in
  let names = List.map (fun v -> v.Obs.Artifact.sv_bench) vs in
  Alcotest.(check bool) "steady clean" true (not (List.mem "steady" names));
  Alcotest.(check bool) "tiny drift caught" true (List.mem "drifter" names);
  Alcotest.(check bool) "removal caught" true (List.mem "vanishing" names);
  Alcotest.(check bool) "unexplained addition caught" true (List.mem "appearing" names);
  Alcotest.(check bool) "host drift ignored" true (not (List.mem "noisy" names));
  (* identical files pass the gate *)
  Alcotest.(check int) "self-compare is clean" 0
    (List.length (Obs.Artifact.strict_sim_violations ~baseline ~candidate:baseline))

let test_is_sim_backend_boundaries () =
  (* exact-family membership, not a "sim" prefix test: every backend the
     simulator actually emits is in, every near-miss spelling is out *)
  let with_backend b = { (sample_result "x" 1.0) with Obs.Artifact.backend = b } in
  List.iter
    (fun b ->
      Alcotest.(check bool) (Printf.sprintf "%S gated" b) true
        (Obs.Artifact.is_sim_backend (with_backend b)))
    [ "sim"; "sim-ap1000"; "sim-p2"; "sim-p4"; "sim-p16" ];
  List.iter
    (fun b ->
      Alcotest.(check bool) (Printf.sprintf "%S not gated" b) false
        (Obs.Artifact.is_sim_backend (with_backend b)))
    [
      "simd-avx2";  (* prefix lookalike, wall-clock *)
      "sim-procs";  (* hypothetical wall-clock procs label *)
      "procs";
      "host-sim";  (* sim suffix, not prefix *)
      "sim-p";  (* p with no digits *)
      "sim-p4x";  (* trailing junk after the digits *)
      "sim-ap1000x";
      "Sim";  (* case-sensitive *)
      "";
    ]

let test_strict_sim_counter_drift () =
  let base = sample_result "counters" 1.0 in
  let baseline = Obs.Artifact.make ~smoke:true ~host:[] [ base ] in
  let drifted =
    { base with Obs.Artifact.counters = [ ("sim.msgs", 121.0); ("sim.bytes", 4096.0) ] }
  in
  let candidate = Obs.Artifact.make ~smoke:true ~host:[] [ drifted ] in
  let vs = Obs.Artifact.strict_sim_violations ~baseline ~candidate in
  Alcotest.(check bool) "counter drift caught" true (vs <> [])

(* --- metrics JSON export ------------------------------------------------ *)

let test_metrics_to_json () =
  with_obs_enabled (fun () ->
      Obs.reset ();
      let c = Obs.Counter.make "test.export.counter" in
      let h = Obs.Histogram.make ~unit_:"bytes" "test.export.hist" in
      Obs.Counter.add c 7;
      Obs.Histogram.record h 512;
      let json = Obs.to_json () in
      (* The export must itself round-trip through the parser. *)
      match Obs.Json.of_string (Obs.Json.to_string json) with
      | Error e -> Alcotest.failf "metrics export is invalid JSON: %s" e
      | Ok parsed ->
          let counters = Option.get (Obs.Json.member "counters" parsed) in
          Alcotest.(check (option int)) "counter exported" (Some 7)
            (Obs.Json.mem_int "test.export.counter" counters);
          let hists = Option.get (Obs.Json.member "histograms" parsed) in
          let hist = Option.get (Obs.Json.member "test.export.hist" hists) in
          Alcotest.(check (option string)) "unit" (Some "bytes") (Obs.Json.mem_string "unit" hist);
          Alcotest.(check (option int)) "count" (Some 1) (Obs.Json.mem_int "count" hist);
          Alcotest.(check (option int)) "sum" (Some 512) (Obs.Json.mem_int "sum" hist))

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "float fidelity" `Quick test_json_float_fidelity;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode;
          Alcotest.test_case "malformed inputs" `Quick test_json_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "counters",
        [
          Alcotest.test_case "semantics" `Quick test_counter_semantics;
          Alcotest.test_case "parallel increments" `Quick test_counter_parallel;
          Alcotest.test_case "disabled mode is a no-op" `Quick test_disabled_is_noop;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_histogram_buckets;
          Alcotest.test_case "semantics" `Quick test_histogram_semantics;
          Alcotest.test_case "quantiles" `Quick test_histogram_quantiles;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick test_span_exception_safe;
        ] );
      ( "wiring",
        [
          Alcotest.test_case "exec backends instrumented" `Quick test_exec_instrumented;
          Alcotest.test_case "map_compose is one pmap pass" `Quick test_map_compose_one_pass;
          Alcotest.test_case "sim counters" `Quick test_sim_counters;
          Alcotest.test_case "pool stats" `Quick test_pool_stats;
          Alcotest.test_case "pool publishes on teardown" `Quick test_pool_publish_obs;
        ] );
      ( "chrome-trace",
        [ Alcotest.test_case "hyperquicksort trace is valid" `Quick test_chrome_trace ] );
      ( "artifact",
        [
          Alcotest.test_case "round-trip" `Quick test_artifact_roundtrip;
          Alcotest.test_case "schema guard" `Quick test_artifact_schema_guard;
          Alcotest.test_case "comparison verdicts" `Quick test_artifact_compare;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "strict sim gate" `Quick test_strict_sim_violations;
          Alcotest.test_case "sim-backend family boundaries" `Quick
            test_is_sim_backend_boundaries;
          Alcotest.test_case "strict sim counter drift" `Quick test_strict_sim_counter_drift;
          Alcotest.test_case "metrics export" `Quick test_metrics_to_json;
        ] );
    ]
