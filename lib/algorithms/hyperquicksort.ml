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
      [sort_flatint] instantiates the same program body over flat keys.

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

(* Block-distribute over [2^dims] virtual processors, SEQ_QUICKSORT each. *)
let sorted_blocks ~exec ~caller ~dims a =
  if dims < 0 then invalid_arg ("Hyperquicksort." ^ caller ^ ": negative dimension");
  Elementary.map ~exec Seq_kernels.quicksort (Partition.apply (Partition.Block (1 lsl dims)) a)

let sort_recursive ?(exec = Exec.sequential) ~dims (a : int array) : int array =
  let sorted = hsort ~exec dims (sorted_blocks ~exec ~caller:"sort_recursive" ~dims a) in
  Array.concat (Par_array.to_list sorted)

(* --- 2. flattened iterative SPMD form (paper Section 5) ----------------- *)

let sort_flat ?(exec = Exec.sequential) ~dims (a : int array) : int array =
  let da = sorted_blocks ~exec ~caller:"sort_flat" ~dims a in
  let p = 1 lsl dims in
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

(* --- 3. SPMD program on any engine, either tier ---------------------------- *)

open Machine

(* One tier of the SPMD program: how rank 0 holds the input (['i]), how
   a rank holds its keys (['a]) and what rank 0's gather returns (['r]).
   A tier is built per rank per run and every field works on a whole
   chunk, so the per-key loops stay in each tier's own kernels. *)
type ('i, 'a, 'r) tier = {
  scatter : 'i option -> 'a;  (* [Dvec.scatter]: length bcast, then blocks *)
  sort : 'a -> 'a;
  length : 'a -> int;
  midvalue : 'a -> int option;
  split_at : int -> 'a -> 'a * 'a;
  exchange : Comm.t -> partner:int -> 'a -> 'a;
  merge : round:int -> 'a -> 'a -> 'a;
  show : 'a -> string;
  gather : 'a -> 'r option;  (* rank order, [Some] at rank 0 only *)
}

(* One processor's SPMD program, written once for both tiers: the message
   schedule and every flops charge are the same whichever tier holds the
   keys.  Its trace notes regenerate the paper's Figure 2 when the run
   records a trace; they cost no simulated time and are no-ops on an
   untraced run. *)
let hqs_program (t : ('i, 'a, 'r) tier) (data : 'i option) (comm : Comm.t) : 'r option =
  let d = log2_exact (Comm.size comm) in
  let say fmt = Printf.ksprintf (Comm.note comm) fmt in
  (* Distribute, then SEQ_QUICKSORT locally. *)
  let local = ref (t.sort (t.scatter data)) in
  Comm.work_flops comm (Scl_sim.Kernels.sort_flops (t.length !local));
  say "after local quicksort: %s" (t.show !local);
  (* Iterate over cube dimensions, splitting the group communicator each
     round — the paper's mergeAndDiv / dynamic processor grouping. *)
  let c = ref comm in
  for round = 0 to d - 1 do
    let gsz = Comm.size !c in
    let half = gsz / 2 in
    let me = Comm.rank !c in
    (* pivot: first non-empty member's MIDVALUE, shared group-wide. *)
    Comm.work_flops comm Scl_sim.Kernels.median_flops;
    let first_some a b = if a = None then b else a in
    let pivot = Comm.allreduce !c first_some (t.midvalue !local) in
    (match pivot with
    | None -> () (* the whole group is empty *)
    | Some pivot ->
        say "group pivot %d" pivot;
        (* SPLIT locally... *)
        Comm.work_flops comm (Scl_sim.Kernels.binary_search_flops (t.length !local));
        let lo, hi = t.split_at pivot !local in
        let keep, give = if me < half then (lo, hi) else (hi, lo) in
        (* ...exchange with the partner in the other half-cube... *)
        let partner = me lxor half in
        let recvd = t.exchange !c ~partner give in
        (* ...and MERGE. *)
        Comm.work_flops comm (Scl_sim.Kernels.merge_flops (t.length keep + t.length recvd));
        local := t.merge ~round keep recvd;
        say "after exchange with partner %d: %s" partner (t.show !local));
    (* divide the cube *)
    c := Comm.split !c ~color:(if me < half then 0 else 1) ~key:me
  done;
  (* Collect to processor 0; chunk sizes changed, so gather variable-length
     chunks in rank order. *)
  t.gather !local

let show_keys n (keys : unit -> int array) =
  if n <= 40 then "[" ^ String.concat " " (Array.to_list (Array.map string_of_int (keys ()))) ^ "]"
  else Printf.sprintf "[%d elements]" n

(* The boxed tier: [int array] chunks, the [Seq_kernels] procedures and
   marshalled messages. *)
let boxed_tier comm : (int array, int array, int array) tier =
  {
    scatter = (fun data -> Scl_sim.Dvec.local (Scl_sim.Dvec.scatter comm ~root:0 data));
    sort = Seq_kernels.quicksort;
    length = Array.length;
    midvalue = Seq_kernels.midvalue;
    split_at = Seq_kernels.split_at;
    exchange = Comm.exchange;
    merge = (fun ~round:_ -> Seq_kernels.merge);
    show = (fun a -> show_keys (Array.length a) (fun () -> a));
    gather =
      (fun a ->
        Option.map (fun chunks -> Array.concat (Array.to_list chunks)) (Comm.gather comm ~root:0 a));
  }

(* The flat tier: the keys in unboxed int flat storage ([Scl.Flat.Int])
   from scatter to gather, moving as bulk slices ([sort_flatint]'s
   interface says how on each engine).  The input reaches the root
   already in a workspace buffer of its own ([Comm.input]): ranks sort
   their blocks in place, and the caller's array must not change.

   Every buffer comes from [Comm.workspace] (lent from earlier runs'
   buffers under [Spmd.run_flat]).  The first
   round's merge writes the sort's scratch, which has a little headroom;
   later rounds, and a first merge too large for it, take a buffer of
   their own: from round 2 on the kept half may lie in the scratch, and
   on [multicore] the half sent from it is read by reference, possibly
   after this rank has moved on. *)
let flat_tier comm : (Scl.Flat.int1, Scl.Flat.int1, Scl.Flat.int1 array) tier =
  let module FI = Scl.Flat.Int in
  let workspace n : FI.t = Comm.workspace comm Scl.Flat.int n in
  let scratch = ref None in
  {
    scatter =
      (fun data ->
        (* the length broadcast of [Dvec.scatter], so both tiers send as
           many messages *)
        ignore (Comm.bcast comm ~root:0 (Option.map Scl.Flat.length data) : int);
        Comm.scatter_slice comm ~root:0 data);
    sort =
      (fun a ->
        let n = Scl.Flat.length a in
        (* headroom, so that a first merge a little larger than the block fits *)
        let s = workspace (n + (n / 16)) in
        scratch := Some s;
        FI.sort ~scratch:s a;
        a);
    length = Scl.Flat.length;
    midvalue = FI.midvalue;
    split_at = FI.split_at;
    exchange =
      (fun c ~partner give ->
        Comm.send_slice c ~dest:partner give;
        Comm.recv_slice c ~src:partner ());
    merge =
      (fun ~round keep recvd ->
        let total = Scl.Flat.length keep + Scl.Flat.length recvd in
        let into =
          match !scratch with
          | Some s when round = 0 && total <= Scl.Flat.length s -> s
          | _ -> workspace total
        in
        FI.merge ~into keep recvd);
    show = (fun a -> show_keys (Scl.Flat.length a) (fun () -> FI.to_int_array a));
    gather = (fun a -> Comm.gather_slices comm ~root:0 a);
  }

(* Both tiers run on any backend: [Comm.work_flops] charges simulated
   time on [sim] and is a no-op on the real engines, where the local
   kernels are the actual work.  Same values on every engine. *)
let check_procs procs =
  if not (Topology.is_power_of_two procs) then
    invalid_arg "Hyperquicksort: processor count must be a power of two"

let input data comm = if Comm.rank comm = 0 then Some data else None

let sort backend ?topology ~procs (data : int array) =
  check_procs procs;
  Scl_sim.Spmd.run backend ?topology ~procs (fun comm ->
      hqs_program (boxed_tier comm) (input data comm) comm)

let sort_flatint backend ?chaos ~procs (data : int array) =
  check_procs procs;
  Scl_sim.Spmd.run_flat backend ?chaos ~procs ~kind:Scl.Flat.int ~input:data (fun comm ->
      hqs_program (flat_tier comm) (Comm.input comm Scl.Flat.int) comm)

(* Pinned by the steady benchmark, which calls these exact names. *)
let sort_procs ~procs data = sort_flatint Backend.procs ~procs data
let sort_multicore_flatint ?domains ~procs data =
  sort_flatint (Backend.multicore ?domains ()) ~procs data
