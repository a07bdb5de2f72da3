(* Execution backends for the SCL skeletons.

   A backend supplies the primitive data-parallel loops; skeletons are
   defined once and run sequentially (the reference semantics) or on the
   multicore work-stealing pool, depending on the backend passed at the call
   site.  This realises the paper's portability claim: skeleton *meaning* is
   fixed by the sequential semantics, implementations vary per machine.

   The backend is a record of rank-2 polymorphic fields rather than a
   functor so that it can be chosen dynamically (e.g. per benchmark run)
   without duplicating the skeleton code per instantiation.

   Fused primitives (pmap_reduce / pmap_scan) realise the paper's
   Section 4 algebra at the execution layer: [fold f . map g] and
   [scan f . map g] run as single passes with no intermediate array, so a
   composition optimised by [Transform.Rewrite] actually costs what the
   fusion rules promise ([map f . map g] is one [pmap] of the composed
   function). *)

type t = {
  name : string;
  pmap : 'a 'b. ('a -> 'b) -> 'a array -> 'b array;
  pmapi : 'a 'b. (int -> 'a -> 'b) -> 'a array -> 'b array;
  pinit : 'a. int -> (int -> 'a) -> 'a array;
  preduce : 'a. ('a -> 'a -> 'a) -> 'a array -> 'a;
      (* associative combine over a non-empty array, in index order *)
  pscan : 'a. ('a -> 'a -> 'a) -> 'a array -> 'a array;
      (* inclusive prefix: [| x0; x0+x1; ... |] *)
  pmap_reduce : 'a 'b. ('a -> 'b) -> ('b -> 'b -> 'b) -> 'a array -> 'b;
      (* preduce op (pmap f a), one pass, no intermediate *)
  pmap_scan : 'a 'b. ('a -> 'b) -> ('b -> 'b -> 'b) -> 'a array -> 'b array;
      (* pscan op (pmap f a), one pass, no intermediate *)
}

let seq_reduce op a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Exec.preduce: empty array";
  let acc = ref a.(0) in
  for i = 1 to n - 1 do
    acc := op !acc a.(i)
  done;
  !acc

let seq_scan op a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let out = Array.make n a.(0) in
    for i = 1 to n - 1 do
      out.(i) <- op out.(i - 1) a.(i)
    done;
    out
  end

let seq_map_reduce f op a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Exec.pmap_reduce: empty array";
  let acc = ref (f a.(0)) in
  for i = 1 to n - 1 do
    acc := op !acc (f a.(i))
  done;
  !acc

let seq_map_scan f op a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let out = Array.make n (f a.(0)) in
    for i = 1 to n - 1 do
      out.(i) <- op out.(i - 1) (f a.(i))
    done;
    out
  end

(* Observability: wrap every primitive of a backend in an aggregated span
   ("exec.<backend>.<prim>", durations in ns) plus a per-backend call
   counter.  With the obs switch off (the default) each call costs a single
   atomic load and branch; spans and counters are created once here, never
   per call.  Skeleton calls are whole-array operations, so even enabled
   overhead is amortised over n elements. *)
let instrument e =
  let span prim = Obs.Span.make (Printf.sprintf "exec.%s.%s" e.name prim) in
  let s_pmap = span "pmap"
  and s_pmapi = span "pmapi"
  and s_pinit = span "pinit"
  and s_preduce = span "preduce"
  and s_pscan = span "pscan"
  and s_pmap_reduce = span "pmap_reduce"
  and s_pmap_scan = span "pmap_scan" in
  let calls = Obs.Counter.make (Printf.sprintf "exec.%s.calls" e.name) in
  let pmap : 'a 'b. ('a -> 'b) -> 'a array -> 'b array =
   fun f a ->
    Obs.Counter.incr calls;
    Obs.Span.timed s_pmap (fun () -> e.pmap f a)
  in
  let pmapi : 'a 'b. (int -> 'a -> 'b) -> 'a array -> 'b array =
   fun f a ->
    Obs.Counter.incr calls;
    Obs.Span.timed s_pmapi (fun () -> e.pmapi f a)
  in
  let pinit : 'a. int -> (int -> 'a) -> 'a array =
   fun n f ->
    Obs.Counter.incr calls;
    Obs.Span.timed s_pinit (fun () -> e.pinit n f)
  in
  let preduce : 'a. ('a -> 'a -> 'a) -> 'a array -> 'a =
   fun op a ->
    Obs.Counter.incr calls;
    Obs.Span.timed s_preduce (fun () -> e.preduce op a)
  in
  let pscan : 'a. ('a -> 'a -> 'a) -> 'a array -> 'a array =
   fun op a ->
    Obs.Counter.incr calls;
    Obs.Span.timed s_pscan (fun () -> e.pscan op a)
  in
  let pmap_reduce : 'a 'b. ('a -> 'b) -> ('b -> 'b -> 'b) -> 'a array -> 'b =
   fun f op a ->
    Obs.Counter.incr calls;
    Obs.Span.timed s_pmap_reduce (fun () -> e.pmap_reduce f op a)
  in
  let pmap_scan : 'a 'b. ('a -> 'b) -> ('b -> 'b -> 'b) -> 'a array -> 'b array =
   fun f op a ->
    Obs.Counter.incr calls;
    Obs.Span.timed s_pmap_scan (fun () -> e.pmap_scan f op a)
  in
  { name = e.name; pmap; pmapi; pinit; preduce; pscan; pmap_reduce; pmap_scan }

let sequential =
  instrument
    {
      name = "sequential";
      pmap = Array.map;
      pmapi = Array.mapi;
      pinit = Array.init;
      preduce = seq_reduce;
      pscan = seq_scan;
      pmap_reduce = seq_map_reduce;
      pmap_scan = seq_map_scan;
    }

(* Chunk boundaries for the two-phase parallel reduce/scan: [nchunks]
   balanced contiguous ranges, at least one and no empty one. *)
let chunk_bounds n nchunks = Partition.block_bounds ~n ~p:(max 1 (min n nchunks))

let on_pool pool =
  let open Runtime in
  (* Chunking derives from the pool's size-aware grain heuristic, so the
     chunk count adapts to the array instead of the fixed 8 x workers. *)
  let bounds_for n = chunk_bounds n ((n + Pool.grain_for pool n - 1) / Pool.grain_for pool n) in
  let pmap : 'a 'b. ('a -> 'b) -> 'a array -> 'b array = fun f a -> Pool.map_array pool f a in
  let pmapi : 'a 'b. (int -> 'a -> 'b) -> 'a array -> 'b array =
   fun f a -> Pool.mapi_array pool f a
  in
  let pinit : 'a. int -> (int -> 'a) -> 'a array = fun n f -> Pool.init_array pool n f in
  (* Two-phase reduce with the map fused into the leaf pass.  [preduce] is
     the [f = id] instance. *)
  let pmap_reduce : 'a 'b. ('a -> 'b) -> ('b -> 'b -> 'b) -> 'a array -> 'b =
   fun f op a ->
    let n = Array.length a in
    if n = 0 then invalid_arg "Exec.pmap_reduce: empty array";
    let bounds = bounds_for n in
    let nchunks = Array.length bounds - 1 in
    let partials =
      Pool.init_array pool ~grain:1 nchunks (fun k ->
          let acc = ref (f a.(bounds.(k))) in
          for i = bounds.(k) + 1 to bounds.(k + 1) - 1 do
            acc := op !acc (f a.(i))
          done;
          !acc)
    in
    (* Combine partials in index order so non-commutative ops are safe. *)
    seq_reduce op partials
  in
  let preduce : 'a. ('a -> 'a -> 'a) -> 'a array -> 'a =
   fun op a ->
    match pmap_reduce (fun x -> x) op a with
    | v -> v
    | exception Invalid_argument _ -> invalid_arg "Exec.preduce: empty array"
  in
  (* Three-phase scan, with an optional map fused into the phase-1 local
     scans (each element is mapped exactly once). *)
  let pmap_scan : 'a 'b. ('a -> 'b) -> ('b -> 'b -> 'b) -> 'a array -> 'b array =
   fun f op a ->
    let n = Array.length a in
    if n = 0 then [||]
    else begin
      let bounds = bounds_for n in
      let nchunks = Array.length bounds - 1 in
      let out = Array.make n (f a.(0)) in
      (* Phase 1: local inclusive scans per chunk, mapping as we read. *)
      Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:nchunks (fun k ->
          let lo = bounds.(k) and hi = bounds.(k + 1) in
          out.(lo) <- f a.(lo);
          for i = lo + 1 to hi - 1 do
            out.(i) <- op out.(i - 1) (f a.(i))
          done);
      (* Phase 2: exclusive prefix of chunk totals, sequential over chunks. *)
      let offsets = Array.make nchunks None in
      let running = ref None in
      for k = 0 to nchunks - 1 do
        offsets.(k) <- !running;
        let total = out.(bounds.(k + 1) - 1) in
        running := Some (match !running with None -> total | Some acc -> op acc total)
      done;
      (* Phase 3: add offsets to all chunks but the first. *)
      Pool.parallel_for pool ~grain:1 ~lo:1 ~hi:nchunks (fun k ->
          match offsets.(k) with
          | None -> ()
          | Some off ->
              for i = bounds.(k) to bounds.(k + 1) - 1 do
                out.(i) <- op off out.(i)
              done);
      out
    end
  in
  let pscan : 'a. ('a -> 'a -> 'a) -> 'a array -> 'a array = fun op a -> pmap_scan (fun x -> x) op a in
  instrument { name = "pool"; pmap; pmapi; pinit; preduce; pscan; pmap_reduce; pmap_scan }
