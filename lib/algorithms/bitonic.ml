(* Block bitonic sort on a hypercube — the other classic hypercube sort of
   the era, used as a second baseline against hyperquicksort.  Every
   processor keeps exactly n/p keys throughout (padding with +inf
   sentinels), so unlike hyperquicksort its load is perfectly balanced but
   it always moves the full data volume in every compare-split step. *)

open Machine

let sentinel = max_int

(* Compare-split: given my sorted block and my partner's sorted block, keep
   the lower or upper half of their merge. *)
let compare_split ~keep_low (mine : int array) (theirs : int array) : int array =
  let merged = Seq_kernels.merge mine theirs in
  let n = Array.length mine in
  if keep_low then Array.sub merged 0 n else Array.sub merged (Array.length merged - n) n

let bitonic_program (data : int array option) (comm : Comm.t) : int array option =
  let p = Comm.size comm in
  let d = Topology.log2_exact p in
  let me = Comm.rank comm in
  (* Pad to a multiple of p so blocks stay equal-sized. *)
  let total = Comm.bcast comm ~root:0 (Option.map Array.length data) in
  let padded = ((total + p - 1) / p) * p in
  let padded_data =
    Option.map
      (fun a -> Array.append a (Array.make (padded - total) sentinel))
      data
  in
  let dv = Scl_sim.Dvec.scatter comm ~root:0 padded_data in
  let mine = ref (Seq_kernels.quicksort (Scl_sim.Dvec.local dv)) in
  Comm.work_flops comm (Scl_sim.Kernels.sort_flops (Array.length !mine));
  for k = 1 to d do
    (* Stage k: bitonic merge within groups of 2^k; direction from bit k. *)
    let ascending = (me lsr k) land 1 = 0 in
    for j = k - 1 downto 0 do
      let partner = me lxor (1 lsl j) in
      let theirs : int array = Comm.exchange comm ~partner !mine in
      Comm.work_flops comm (Scl_sim.Kernels.merge_flops (2 * Array.length !mine));
      let keep_low = (me < partner) = ascending in
      mine := compare_split ~keep_low !mine theirs
    done
  done;
  match Comm.gather comm ~root:0 !mine with
  | Some chunks ->
      let all = Array.concat (Array.to_list chunks) in
      Some (Array.sub all 0 total)
  | None -> None

let sort backend ~procs (data : int array) =
  if not (Topology.is_power_of_two procs) then
    invalid_arg "Bitonic.sort: processor count must be a power of two";
  if Array.exists (fun x -> x = sentinel) data then
    invalid_arg "Bitonic.sort: max_int keys are reserved as padding sentinels";
  Scl_sim.Spmd.run backend ~topology:Topology.Hypercube ~procs (fun comm ->
      bitonic_program (if Comm.rank comm = 0 then Some data else None) comm)
