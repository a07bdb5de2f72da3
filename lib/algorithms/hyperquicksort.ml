(* Hyperquicksort (Wagar; paper Section 3's second example) in three
   renderings:

   1. [sort_recursive] — the Section 3 divide-and-conquer SCL program:
      nested parallelism via split/combine, pivot spread via applybrdcast,
      exchange via fetch.
   2. [sort_flat]      — the Section 5 flattened iterative SPMD program
      (the output of the flattening transformation), using iterFor.
   3. [sort]           — the skeleton implementation templates instantiated
      as an SPMD program on any engine; on the simulated distributed-memory
      machine it regenerates the paper's Table 1 / Figure 3 experiment.

   Robustness extension beyond the paper: when a group leader holds no data
   (possible for skewed inputs), the pivot is taken from the first
   non-empty member of the group (recursive/flat) or the first [Some] in an
   allreduce (simulator); when the whole group is empty the exchange is
   skipped. On the paper's workload (uniform random keys) this never
   triggers. *)

open Scl

let log2_exact = Machine.Topology.log2_exact

(* --- 1. recursive divide-and-conquer (paper Section 3) ------------------ *)

let rec hsort ~exec d (da : int array Par_array.t) : int array Par_array.t =
  if d = 0 then da
  else begin
    let p = Par_array.length da in
    let half = p / 2 in
    (* spreadPivot: MIDVALUE at the (first non-empty) leader, broadcast. *)
    let root =
      let rec find i = if i >= p then 0 else if Array.length (Par_array.get da i) > 0 then i else find (i + 1) in
      find 0
    in
    let pivoted = Communication.applybrdcast ~exec Seq_kernels.midvalue root da in
    match fst (Par_array.get pivoted 0) with
    | None -> da (* every processor is empty: nothing to do *)
    | Some pivot ->
        (* exPart: SPLIT locally, exchange portions with the partner in the
           other half of the cube (fetch across partner = i xor half). *)
        let splitpairs =
          Elementary.imap ~exec
            (fun i (_, a) ->
              let lo, hi = Seq_kernels.split_at pivot a in
              if i < half then (lo, hi) else (hi, lo))
            pivoted
        in
        let keeps, gives = Config.unalign splitpairs in
        let received = Communication.fetch ~exec (fun i -> i lxor half) gives in
        (* mergeAndDiv: MERGE, then divide into sub-cubes and recurse. *)
        let merged = Elementary.zip_with ~exec Seq_kernels.merge keeps received in
        let subcubes = Partition.split (Partition.Block 2) merged in
        Partition.combine (Elementary.map ~exec (hsort ~exec (d - 1)) subcubes)
  end

let sort_recursive ?(exec = Exec.sequential) ~dims (a : int array) : int array =
  if dims < 0 then invalid_arg "Hyperquicksort.sort_recursive: negative dimension";
  let p = 1 lsl dims in
  let da =
    Elementary.map ~exec Seq_kernels.quicksort (Partition.apply (Partition.Block p) a)
  in
  let sorted = hsort ~exec dims da in
  Array.concat (Par_array.to_list sorted)

(* --- 2. flattened iterative SPMD form (paper Section 5) ----------------- *)

let sort_flat ?(exec = Exec.sequential) ~dims (a : int array) : int array =
  if dims < 0 then invalid_arg "Hyperquicksort.sort_flat: negative dimension";
  let p = 1 lsl dims in
  let da =
    Elementary.map ~exec Seq_kernels.quicksort (Partition.apply (Partition.Block p) a)
  in
  let step it x =
    let gsz = 1 lsl (dims - it) in
    let half = gsz / 2 in
    (* wpivot: every processor computes MIDVALUE locally; the group pivot is
       fetched from the group's (first non-empty) leader — the paper's
       [fetch (mf d)] with mf i = (i / gsz) * gsz. *)
    let mids = Elementary.map ~exec Seq_kernels.midvalue x in
    let leader =
      Array.init (p / gsz) (fun g ->
          let base = g * gsz in
          let rec find k = if k >= gsz then base else if Par_array.get mids (base + k) <> None then base + k else find (k + 1) in
          find 0)
    in
    let pivots = Communication.fetch ~exec (fun i -> leader.(i / gsz)) mids in
    let aligned = Config.align pivots x in
    (* exPart: SPLIT against the pivot, exchange with the partner. *)
    let splitpairs =
      Elementary.imap ~exec
        (fun i (pv, a) ->
          match pv with
          | None -> (a, [||])
          | Some pivot ->
              let lo, hi = Seq_kernels.split_at pivot a in
              if i land half = 0 then (lo, hi) else (hi, lo))
        aligned
    in
    let keeps, gives = Config.unalign splitpairs in
    let received = Communication.fetch ~exec (fun i -> i lxor half) gives in
    Elementary.zip_with ~exec Seq_kernels.merge keeps received
  in
  let final = Computational.iter_for dims step da in
  Array.concat (Par_array.to_list final)

(* --- 3. simulated distributed-memory machine ----------------------------- *)

open Machine

(* One processor's SPMD program.  Its trace notes regenerate the paper's
   Figure 2 when the run records a trace; they cost no simulated time and
   are no-ops on the real engines. *)
let hqs_program (data : int array option) (comm : Comm.t) : int array option =
  let p = Comm.size comm in
  let d = log2_exact p in
  let say fmt = Printf.ksprintf (Comm.note comm) fmt in
  let show a =
    if Array.length a <= 40 then
      "[" ^ String.concat " " (Array.to_list (Array.map string_of_int a)) ^ "]"
    else Printf.sprintf "[%d elements]" (Array.length a)
  in
  (* Distribute, then SEQ_QUICKSORT locally. *)
  let dv = Scl_sim.Dvec.scatter comm ~root:0 data in
  let local = ref (Seq_kernels.quicksort (Scl_sim.Dvec.local dv)) in
  Comm.work_flops comm (Scl_sim.Kernels.sort_flops (Array.length !local));
  say "after local quicksort: %s" (show !local);
  (* Iterate over cube dimensions, splitting the group communicator each
     round — the paper's mergeAndDiv / dynamic processor grouping. *)
  let c = ref comm in
  for _it = 0 to d - 1 do
    let gsz = Comm.size !c in
    let half = gsz / 2 in
    let me = Comm.rank !c in
    (* pivot: first non-empty member's MIDVALUE, shared group-wide. *)
    Comm.work_flops comm Scl_sim.Kernels.median_flops;
    let first_some a b = if a = None then b else a in
    let pivot = Comm.allreduce !c first_some (Seq_kernels.midvalue !local) in
    (match pivot with
    | None -> () (* the whole group is empty *)
    | Some pivot ->
        say "group pivot %d" pivot;
        (* SPLIT locally... *)
        Comm.work_flops comm (Scl_sim.Kernels.binary_search_flops (Array.length !local));
        let lo, hi = Seq_kernels.split_at pivot !local in
        let keep, give = if me < half then (lo, hi) else (hi, lo) in
        (* ...exchange with the partner in the other half-cube... *)
        let partner = me lxor half in
        let (recvd : int array) = Comm.exchange !c ~partner give in
        (* ...and MERGE. *)
        Comm.work_flops comm
          (Scl_sim.Kernels.merge_flops (Array.length keep + Array.length recvd));
        local := Seq_kernels.merge keep recvd;
        say "after exchange with partner %d: %s" partner (show !local));
    (* divide the cube *)
    c := Comm.split !c ~color:(if me < half then 0 else 1) ~key:me
  done;
  (* Collect to processor 0; chunk sizes changed, so gather variable-length
     chunks in rank order. *)
  let result = Comm.gather comm ~root:0 !local in
  Option.map (fun chunks -> Array.concat (Array.to_list chunks)) result

(* The same SPMD program with the keys in unboxed int flat storage
   ([Scl.Flat.Int]) from scatter to gather: in-place local sort, O(log n)
   zero-copy [split_at] (the boxed kernel copies both halves), and merge
   into fresh flat storage.  The keys move as bulk slices — scatter,
   exchange and gather — never marshalled: by reference on [multicore],
   as private copies priced at 8 bytes a key on [sim], and through the
   shared arena on [procs].  The root copies the input once, because
   ranks sort their blocks in place and the caller's array must not
   change; the gathered parts are laid out straight into the result.
   Flops charges and the message count are identical to [hqs_program],
   keeping sim timings comparable between the tiers (only the priced
   byte counts differ). *)
let hqs_program_flatint (data : int array option) (comm : Comm.t) : int array option =
  let module FI = Scl.Flat.Int in
  let p = Comm.size comm in
  let d = log2_exact p in
  (* the length broadcast of [Dvec.scatter], so both tiers send as many
     messages; the root sizes the gathered result with it *)
  let total = Comm.bcast comm ~root:0 (Option.map Array.length data) in
  let local : FI.t ref = ref (Comm.scatter_slice comm ~root:0 (Option.map FI.of_int_array data)) in
  FI.sort !local;
  Comm.work_flops comm (Scl_sim.Kernels.sort_flops (Scl.Flat.length !local));
  let c = ref comm in
  for _it = 0 to d - 1 do
    let gsz = Comm.size !c in
    let half = gsz / 2 in
    let me = Comm.rank !c in
    Comm.work_flops comm Scl_sim.Kernels.median_flops;
    let first_some a b = if a = None then b else a in
    let pivot = Comm.allreduce !c first_some (FI.midvalue !local) in
    (match pivot with
    | None -> ()
    | Some pivot ->
        Comm.work_flops comm (Scl_sim.Kernels.binary_search_flops (Scl.Flat.length !local));
        let lo, hi = FI.split_at pivot !local in
        let keep, give = if me < half then (lo, hi) else (hi, lo) in
        let partner = me lxor half in
        Comm.send_slice !c ~dest:partner give;
        let (recvd : FI.t) = Comm.recv_slice !c ~src:partner () in
        Comm.work_flops comm
          (Scl_sim.Kernels.merge_flops (Scl.Flat.length keep + Scl.Flat.length recvd));
        local := FI.merge keep recvd);
    c := Comm.split !c ~color:(if me < half then 0 else 1) ~key:me
  done;
  (* Collect to processor 0 and lay the parts out in rank order. *)
  Option.map
    (fun (chunks : FI.t array) ->
      let out = Array.make total 0 in
      let pos = ref 0 in
      Array.iter
        (fun (chunk : FI.t) ->
          let len = Scl.Flat.length chunk in
          for i = 0 to len - 1 do
            out.(!pos + i) <- Scl.Flat.get chunk i
          done;
          pos := !pos + len)
        chunks;
      out)
    (Comm.gather_slices comm ~root:0 !local)

(* Both tiers run on any backend: [Comm.work_flops] charges simulated
   time on [sim] and is a no-op on the real engines, where the local
   kernels are the actual work and the portions move zero-copy between
   domains ([multicore]) or across processes ([procs]: boxed portions by
   [Marshal] over sockets, flat ones through the shared arena; the input
   reaches every child by fork, and the result returns in rank 0's
   verdict). Same values on every engine. *)
let run_hqs program backend ?topology ~procs (data : int array) =
  if not (Topology.is_power_of_two procs) then
    invalid_arg "Hyperquicksort: processor count must be a power of two";
  Scl_sim.Spmd.run backend ?topology ~procs (fun comm ->
      program (if Comm.rank comm = 0 then Some data else None) comm)

let sort backend = run_hqs hqs_program backend
let sort_flatint backend = run_hqs hqs_program_flatint backend

(* Pinned by the steady benchmark, which calls these exact names. *)
let sort_procs ~procs data = sort_flatint Backend.procs ~procs data
let sort_multicore_flatint ?domains ~procs data =
  sort_flatint (Backend.multicore ?domains ()) ~procs data
