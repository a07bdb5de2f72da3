(* The cross-engine catalogue: seeded SPMD programs whose values must not
   depend on the engine that runs them. *)

open Machine
module A = Algorithms
module X = Runtime.Xoshiro
module Spmd = Scl_sim.Spmd

type check = string * (unit -> string option)

let sim = Backend.sim ()

let program (label, _) =
  match String.index_opt label ':' with Some i -> String.sub label 0 i | None -> label

(* [check] that also fails when the run changed the caller's [keys]; the
   copy is taken before any case of the family runs *)
let keeps keys ((label, check) : check) : check =
  let original = Array.copy keys in
  ( label,
    fun () ->
      match check () with
      | None when keys <> original -> Some "the caller's keys changed"
      | r -> r )

let sorts = [ "hyperquicksort"; "hyperquicksort flat-int" ]
let matrix = [ "cannon"; "summa" ]
let solvers = [ "jacobi"; "heat2d"; "cg" ]

let failures checks =
  List.filter_map
    (fun (label, check) ->
      match check () with
      | None -> None
      | Some detail -> Some (label ^ ": " ^ detail)
      | exception e -> Some (label ^ ": raised " ^ Printexc.to_string e))
    checks

let collectives c =
  let p = Comm.size c and me = Comm.rank c in
  let reduces = List.init p (fun root -> Comm.reduce c ~root ( ^ ) (string_of_int me)) in
  let sum = Comm.allreduce c ( + ) (me + 1) in
  let ar = Comm.allreduce c ( ^ ) (string_of_int me) in
  let sc = Comm.scan c ( ^ ) (string_of_int me) in
  let ag = Comm.allgather c (me * me) in
  let at = Comm.alltoall c (Array.init p (fun j -> (me * 100) + j)) in
  let sub = Comm.split c ~color:(me mod 2) ~key:me in
  let sub_sum = Comm.allreduce sub ( + ) me in
  Option.map Array.to_list (Comm.gather c ~root:0 (reduces, sum, ar, sc, ag, at, sub_sum))

(* A program as a function of the engine.  Its value comes back as a
   Marshal image without sharing, so two runs compare bit for bit (every
   float, -0.0 and NaN payloads included) whatever each engine shared. *)
type program = { run : 's. 's Backend.t -> string }

let image (v, _) = Marshal.to_string v [ Marshal.No_sharing ]

(* One case per program: its value on [backend] equals its value on sim. *)
let versus backend ~seed name details p : check =
  ( Printf.sprintf "%s: %s %s seed=%d" name (Backend.name backend) details seed,
    fun () ->
      if p.run backend = p.run sim then None
      else Some ("value differs between sim and " ^ Backend.name backend) )

(* The solvers' inputs for one seed: a 1-D Jacobi load, an even-sided
   heat2d grid (so a 2x2 process grid divides it) and a CG right-hand
   side. *)
let solver_inputs ~seed =
  let shape = X.of_seed (seed lxor 0xf1a7) in
  let jn = 8 + X.int shape 56 in
  let hn = 2 * (3 + X.int shape 5) in
  let cn = 8 + X.int shape 40 in
  let rng = X.of_seed seed in
  let jf = Array.init jn (fun _ -> X.float rng 4.0 -. 2.0) in
  let hf = Array.init hn (fun _ -> Array.init hn (fun _ -> X.float rng 2.0)) in
  let cb = Array.init cn (fun _ -> X.float rng 2.0 -. 1.0) in
  (jf, hf, cb)

(* --- equivalence ----------------------------------------------------------- *)

let equivalence ~seed backend =
  let shape = X.of_seed (seed lxor 0x5eed) in
  let len = 64 * (4 + X.int shape 12) (* 256..960 *) in
  let bound = 1_000 + X.int shape 99_000 in
  let blk = 3 + X.int shape 6 (* matrix block edge 3..8 *) in
  let keys = X.int_array (X.of_seed seed) ~len ~bound in
  let x = X.of_seed (seed lxor 0xa160) in
  let ints = X.int_array x ~len ~bound in
  let floats = X.float_array x ~len ~bound:1.0 in
  let signal = A.Fft.random_signal ~seed (1 lsl (6 + X.int x 4)) in
  let a, b = A.Gauss.random_system ~seed (8 + X.int x 24) in
  let k = 2 + X.int x 3 and per = len / 16 in
  let points, _ = A.Kmeans.blobs ~seed ~k ~per_cluster:per in
  let init = Array.init k (fun i -> points.(i * per)) in
  let bodies = A.Nbody.random_bodies ~seed (len / 8) in
  let jobs = A.Farm_sim.skewed_spec ~njobs:per ~skew:(2 + X.int x 8) in
  let procs = 2 + X.int x 3 (* 2..4; bitonic and heat2d take 4 *) in
  let jf, hf, cb = solver_inputs ~seed in
  let case = versus backend ~seed in
  let at procs = Printf.sprintf "p=%d len=%d" procs len in
  let per_procs name program = List.map (fun p -> case name (at p) (program p)) [ 1; 2; 4 ] in
  let per_grid name program =
    List.map
      (fun grid ->
        let n = blk * grid in
        let ma = A.Cannon.random_matrix ~seed n and mb = A.Cannon.random_matrix ~seed:(seed + 1) n in
        case name (Printf.sprintf "grid=%d n=%d" grid n) (program ~grid ma mb))
      [ 1; 2 ]
  in
  List.map (keeps keys)
    (per_procs "hyperquicksort" (fun procs ->
         { run = (fun be -> image (A.Hyperquicksort.sort be ~procs keys)) })
    @ per_procs "hyperquicksort flat-int" (fun procs ->
          { run = (fun be -> image (A.Hyperquicksort.sort_flatint be ~procs keys)) }))
  @ per_procs "collectives" (fun procs -> { run = (fun be -> image (Spmd.run be ~procs collectives)) })
  @ per_grid "cannon" (fun ~grid ma mb ->
        { run = (fun be -> image (A.Cannon.multiply be ~grid ma mb)) })
  @ per_grid "summa" (fun ~grid ma mb -> { run = (fun be -> image (A.Summa.multiply be ~grid ma mb)) })
  @ List.map
      (fun (name, procs, p) -> case name (at procs) p)
      [
        ("bitonic", 4, { run = (fun be -> image (A.Bitonic.sort be ~procs:4 ints)) });
        ("odd-even", procs, { run = (fun be -> image (A.Odd_even.sort be ~procs ints)) });
        ("sample sort", procs, { run = (fun be -> image (A.Sample_sort.sort be ~procs ints)) });
        ("fft", procs, { run = (fun be -> image (A.Fft.fft be ~procs signal)) });
        ("gauss", procs, { run = (fun be -> image (A.Gauss.solve be ~procs a b)) });
        ( "histogram",
          procs,
          {
            run =
              (fun be -> image (A.Histogram.histogram be ~procs ~buckets:k ~lo:0.0 ~hi:1.0 floats));
          } );
        ("kmeans", procs, { run = (fun be -> image (A.Kmeans.run be ~procs ~k points ~init)) });
        ( "line of sight",
          procs,
          { run = (fun be -> image (A.Line_of_sight.visible be ~procs floats)) } );
        ("nbody", procs, { run = (fun be -> image (A.Nbody.accelerations be ~procs bodies)) });
        ("static farm", procs, { run = (fun be -> image (A.Farm_sim.static be ~procs jobs)) });
        (* the boxed solvers, capped: equal values need no convergence *)
        ( "jacobi",
          procs,
          {
            run =
              (fun be ->
                image (A.Jacobi.solve be ~procs ~tol:1e-7 ~max_iter:200 jf ~left:0.5 ~right:(-0.25)));
          } );
        ( "heat2d",
          4,
          { run = (fun be -> image (A.Heat2d.solve be ~procs:4 ~tol:1e-6 ~max_iter:100 hf)) } );
        ("cg", procs, { run = (fun be -> image (A.Cg.solve be ~procs ~tol:1e-10 ~max_iter:100 cb)) });
      ]
  @
  (* a generated pipeline inside Spmd_exec's discipline (reseeded until
     it is); one that raises on the simulator is skipped *)
  let rec pipeline s =
    let c = Gen.generate ~seed:s (Pipe_gen.gen ()) in
    if Pipe_gen.spmd_executable c then (c, s) else pipeline (s + 1)
  in
  let c, pseed = pipeline (seed lxor 0x919e) in
  let e = Pipe_gen.expr c in
  let run be = image (Transform.Spmd_exec.run be ~procs e c.Pipe_gen.input) in
  [
    ( Printf.sprintf "pipeline: %s p=%d seed=%d %s" (Backend.name backend) procs pseed
        (Transform.Ast.to_string e),
      fun () ->
        match run sim with
        | exception _ -> None
        | s -> if run backend = s then None else Some "value differs from sim" );
  ]

(* --- faults ---------------------------------------------------------------- *)

let farm_expected njobs = Array.init njobs (fun i -> i * i)

let faults (type s) ~seed (backend : s Backend.t) =
  let engine = Backend.name backend in
  let shape = X.of_seed (seed lxor 0xfa17) in
  let prob = 0.1 +. (0.8 *. X.float shape 1.0) in
  let max_hold = 1 + X.int shape 4 in
  let stall = 1e-4 +. X.float shape 1e-3 in
  let crash_op = 1 + X.int shape 10 in
  let njobs = 24 + X.int shape 24 in
  let victim = 1 + X.int shape 3 in
  let unchanged what procs chaos () =
    let bare, _ = Spmd.run backend ~procs collectives in
    let v, _ = Spmd.run backend ~procs ~chaos collectives in
    if v = bare then None else Some (what ^ " changed collective values")
  in
  List.concat_map
    (fun procs ->
      let straggler = 1 + X.int shape (procs - 1) in
      [
        ( Printf.sprintf "chaos-delay: %s p=%d prob=%.2f hold=%d seed=%d" engine procs prob max_hold
            seed,
          unchanged "delay chaos" procs (Chaos.delays ~seed ~prob ~max_hold ()) );
        ( Printf.sprintf "chaos-straggler: %s p=%d rank=%d stall=%.2gs seed=%d" engine procs
            straggler stall seed,
          unchanged "straggler chaos" procs { Chaos.none with Chaos.stalls = [ (straggler, stall) ] }
        );
      ])
    [ 2; 4; 8 ]
  @ [
      ( Printf.sprintf "zero-fault wrap: %s p=4 seed=%d" engine seed,
        fun () ->
          let bare, s0 = Spmd.run backend ~procs:4 collectives in
          let v, s1 = Spmd.run backend ~procs:4 ~chaos:Chaos.none collectives in
          if v <> bare then Some "Chaos.none changed collective values"
          else
            match backend with
            | Backend.Sim _
              when not
                     (Float.equal s0.Sim.makespan s1.Sim.makespan
                     && s0.Sim.total_msgs = s1.Sim.total_msgs
                     && s0.Sim.total_bytes = s1.Sim.total_bytes) ->
                Some
                  (Printf.sprintf "wrapped run diverged: makespan %.9g vs %.9g, msgs %d vs %d"
                     s0.Sim.makespan s1.Sim.makespan s0.Sim.total_msgs s1.Sim.total_msgs)
            | _ -> None );
      ( Printf.sprintf "farm crash: %s rank=%d op=%d jobs=%d seed=%d" engine victim crash_op njobs
          seed,
        fun () ->
          (* the master's grace timeouts detect the silence and re-deal
             the job.  On the real engines each job takes a couple of
             real milliseconds: instant ones could let the other workers
             drain the queue before the victim reaches its crash point. *)
          let spec = A.Farm_sim.skewed_spec ~njobs ~skew:6 in
          let spec =
            match backend with
            | Backend.Sim _ -> spec
            | _ ->
                {
                  spec with
                  run =
                    (fun i ->
                      Unix.sleepf 0.002;
                      spec.run i);
                }
          in
          let chaos = { Chaos.none with Chaos.crashes = [ (victim, crash_op) ] } in
          let got, stats = A.Farm_sim.dynamic backend ~procs:4 ~grace:0.5 ~chaos spec in
          if got <> farm_expected njobs then Some "farm lost or corrupted results"
          else
            match backend with
            | Backend.Procs when stats.Procs.crashed <> [ victim ] ->
                Some
                  (Printf.sprintf "crash list [%s], expected [%d]"
                     (String.concat "; " (List.map string_of_int stats.Procs.crashed))
                     victim)
            | _ -> None );
    ]

(* --- tiers ------------------------------------------------------------------ *)

let tiers (type s) ~seed (backend : s Backend.t) =
  let engine = Backend.name backend in
  let jf, hf, cb = solver_inputs ~seed in
  let rng = X.of_seed (seed lxor 0x7135) in
  let keys = Array.init (64 + X.int rng 192) (fun _ -> X.int rng 10_000) in
  (* the flat tier on [backend] against the boxed one on sim; with
     [msgs], on sim both also send the same number of messages (heat2d's
     tiers block the grid differently) *)
  let tier : type r.
      ?msgs:bool -> string -> int -> int -> (unit -> r * Sim.stats) -> (unit -> r * s) -> check =
   fun ?(msgs = true) name procs n boxed flat ->
    ( Printf.sprintf "%s: flat %s p=%d = boxed sim n=%d seed=%d" name engine procs n seed,
      fun () ->
        let b = boxed () and f = flat () in
        if image b <> image f then Some "flat tier differs from the boxed tier"
        else
          match (backend, snd b, snd f) with
          | Backend.Sim _, s0, s1 when msgs && s0.Sim.total_msgs <> s1.Sim.total_msgs ->
              Some
                (Printf.sprintf "boxed tier sent %d messages, flat %d" s0.Sim.total_msgs
                   s1.Sim.total_msgs)
          | _ -> None )
  in
  let jn = Array.length jf and cn = Array.length cb and hn = Array.length hf in
  List.concat_map
    (fun procs ->
      [
        tier "jacobi" procs jn
          (fun () -> A.Jacobi.solve sim ~procs ~tol:1e-7 jf ~left:0.5 ~right:(-0.25))
          (fun () -> A.Jacobi.solve_flat backend ~procs ~tol:1e-7 jf ~left:0.5 ~right:(-0.25));
        tier "cg" procs cn
          (fun () -> A.Cg.solve sim ~procs ~tol:1e-10 cb)
          (fun () -> A.Cg.solve_flat backend ~procs ~tol:1e-10 cb);
      ])
    [ 1; 2; 3; 4 ]
  @ List.map
      (fun procs ->
        (* the boxed tier needs a square process grid; a stencil and an
           exact max give the same bits on any decomposition, so p=3's
           flat row bands are held to the boxed 1x1 run *)
        tier ~msgs:false "heat2d" procs hn
          (fun () -> A.Heat2d.solve sim ~procs:(if procs = 4 then 4 else 1) ~tol:1e-6 hf)
          (fun () -> A.Heat2d.solve_flat backend ~procs ~tol:1e-6 hf))
      [ 1; 3; 4 ]
  @ List.map
      (fun procs ->
        (* the flat tier's root copies the keys; the caller's array stays *)
        keeps keys
          (tier "hyperquicksort flat-int" procs (Array.length keys)
             (fun () -> A.Hyperquicksort.sort sim ~procs keys)
             (fun () -> A.Hyperquicksort.sort_flatint backend ~procs keys)))
      [ 1; 2; 4 ]
