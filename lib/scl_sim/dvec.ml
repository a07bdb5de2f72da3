(* Block-distributed vectors on the simulated machine: the problem-
   independent implementation templates of the elementary skeletons
   (paper Section 5, "the preliminary implementation of several elementary
   skeletons in a problem-independent manner").

   A Dvec is an SPMD value: every member of the communicator holds its own
   local chunk of a conceptually global vector, block-distributed by
   communicator rank.  Local compute is charged to the simulated clock via
   operation counts; data movement goes through Comm/Sim and is priced by
   the machine's cost model. *)

open Machine

type 'a t = {
  comm : Comm.t;
  local : 'a array;
  offset : int;  (* global index of local.(0) *)
  total : int;
}

let local t = t.local
let local_length t = Array.length t.local
let total t = t.total
let offset t = t.offset

let block_pattern p = Scl.Partition.Block p

(* Block geometry: element range owned by each rank. *)
let block_bounds ~total ~parts = Scl.Partition.block_bounds ~n:total ~p:parts

let owner_of ~total ~parts g =
  Scl.Partition.assign (block_pattern parts) ~n:total g

let charge t flops = Comm.work_flops t.comm flops

(* An elementwise skeleton pass also streams its chunk through memory; this
   is what map fusion saves, so it must be priced. *)
let charge_pass t elems =
  let cm = Comm.cost t.comm in
  Comm.work t.comm (float_of_int elems *. cm.Machine.Cost_model.mem_time)

let of_local comm local =
  let lens = Comm.allgather comm (Array.length local) in
  let me = Comm.rank comm in
  let offset = ref 0 in
  for i = 0 to me - 1 do
    offset := !offset + lens.(i)
  done;
  { comm; local; offset = !offset; total = Array.fold_left ( + ) 0 lens }

(* Distribute a root-held array block-wise (the paper's partition+scatter
   entry into a configuration). *)
let scatter comm ~root (a : 'a array option) : 'a t =
  let p = Comm.size comm in
  let chunks =
    match a with
    | Some arr ->
        let b = block_bounds ~total:(Array.length arr) ~parts:p in
        Some (Array.init p (fun k -> Array.sub arr b.(k) (b.(k + 1) - b.(k))))
    | None -> None
  in
  let total = Comm.bcast comm ~root (Option.map Array.length a) in
  let local = Comm.scatter comm ~root chunks in
  let b = block_bounds ~total ~parts:p in
  { comm; local; offset = b.(Comm.rank comm); total }

(* Collect back to the root (the paper's gather). *)
let gather ~root t : 'a array option =
  match Comm.gather t.comm ~root t.local with
  | Some chunks -> Some (Array.concat (Array.to_list chunks))
  | None -> None

let allgather t : 'a array =
  Array.concat (Array.to_list (Comm.allgather t.comm t.local))

(* --- elementary skeletons ---------------------------------------------- *)

let map ?(flops_per_elem = 1) f t =
  charge t (flops_per_elem * Array.length t.local);
  charge_pass t (Array.length t.local);
  { t with local = Array.map f t.local }

let imap ?(flops_per_elem = 1) f t =
  charge t (flops_per_elem * Array.length t.local);
  charge_pass t (Array.length t.local);
  { t with local = Array.mapi (fun i x -> f (t.offset + i) x) t.local }

let fold ?(flops_per_elem = 1) op t =
  if t.total = 0 then invalid_arg "Dvec.fold: empty vector";
  charge t (flops_per_elem * max 1 (Array.length t.local));
  (* Non-empty local chunks fold locally; the tree combine skips empties via
     option lifting, preserving index order. *)
  let local_acc =
    if Array.length t.local = 0 then None
    else begin
      let acc = ref t.local.(0) in
      for i = 1 to Array.length t.local - 1 do
        acc := op !acc t.local.(i)
      done;
      Some !acc
    end
  in
  let lift a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some a, Some b -> Some (op a b)
  in
  match Comm.allreduce t.comm lift local_acc with
  | Some v -> v
  | None -> assert false

let scan ?(flops_per_elem = 1) op t =
  let n = Array.length t.local in
  charge t (flops_per_elem * max 1 n);
  let local_scan =
    if n = 0 then [||]
    else begin
      let out = Array.make n t.local.(0) in
      for i = 1 to n - 1 do
        out.(i) <- op out.(i - 1) t.local.(i)
      done;
      out
    end
  in
  let my_total = if n = 0 then None else Some local_scan.(n - 1) in
  let lift a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some a, Some b -> Some (op a b)
  in
  let inclusive = Comm.scan t.comm lift my_total in
  (* Exclusive offset = inclusive prefix of the *previous* rank: shift by
     one with a single message to the right neighbour. *)
  let me = Comm.rank t.comm and p = Comm.size t.comm in
  if me + 1 < p then Comm.send t.comm ~dest:(me + 1) inclusive;
  let offset : 'a option = if me = 0 then None else Comm.recv t.comm ~src:(me - 1) () in
  charge t (flops_per_elem * max 1 n);
  let adjusted =
    match offset with
    | None -> local_scan
    | Some off -> Array.map (fun x -> op off x) local_scan
  in
  { t with local = adjusted }

(* --- communication skeletons -------------------------------------------- *)

(* Group consecutive global indices [lo, hi) into maximal runs on which
   [key] is constant; returns (key, g0, len) in ascending order. *)
let runs_by ~lo ~hi key =
  let out = ref [] in
  let start = ref lo in
  for g = lo + 1 to hi do
    if g = hi || key g <> key !start then begin
      out := (key !start, !start, g - !start) :: !out;
      start := g
    end
  done;
  List.rev !out

(* rotate k: the result element at global index g is the input element at
   (g + k) mod total — the paper's [rotate].  Each processor sends exactly
   the segments its neighbours need (at most a few messages, not an
   all-to-all); message payloads carry their destination offset so matching
   is order-independent. *)
let rotate k t =
  let p = Comm.size t.comm in
  let total = t.total in
  if total = 0 || k mod total = 0 then t
  else if p = 1 then begin
    (* Everything is local: a pure copy. *)
    charge t (Kernels.copy_flops total);
    let wrap g = ((g mod total) + total) mod total in
    { t with local = Array.init total (fun i -> t.local.(wrap (i + k))) }
  end
  else begin
    let wrap g = ((g mod total) + total) mod total in
    let me = Comm.rank t.comm in
    let lo = t.offset and hi = t.offset + Array.length t.local in
    (* Where each element I own must go: source g lands at wrap (g - k). *)
    let dest_of g = owner_of ~total ~parts:p (wrap (g - k)) in
    (* Split runs on both owner changes and the wrap discontinuity of the
       destination index, so each run is contiguous at the destination. *)
    let floor_div a b = if a >= 0 then a / b else ((a + 1) / b) - 1 in
    let dest_key g = (dest_of g, floor_div (g - k) total) in
    let out_runs = runs_by ~lo ~hi dest_key in
    List.iter
      (fun ((dest, _), g0, len) ->
        if dest <> me then begin
          let seg = Array.sub t.local (g0 - t.offset) len in
          Comm.send t.comm ~dest (wrap (g0 - k), seg)
        end)
      out_runs;
    let out = Array.copy t.local in
    (* Local elements that stay on this processor. *)
    List.iter
      (fun ((dest, _), g0, len) ->
        if dest = me then
          for i = 0 to len - 1 do
            out.(wrap (g0 + i - k) - lo) <- t.local.(g0 + i - t.offset)
          done)
      out_runs;
    charge t (Kernels.copy_flops (Array.length t.local));
    (* Which sources feed my chunk: destination g draws from wrap (g + k). *)
    let src_of g = owner_of ~total ~parts:p (wrap (g + k)) in
    let floor_div a b = if a >= 0 then a / b else ((a + 1) / b) - 1 in
    let src_key g = (src_of g, floor_div (g + k) total) in
    let in_runs = runs_by ~lo ~hi src_key in
    let expected = Hashtbl.create 8 in
    List.iter
      (fun ((src, _), _, _) ->
        if src <> me then
          Hashtbl.replace expected src (1 + Option.value ~default:0 (Hashtbl.find_opt expected src)))
      in_runs;
    Hashtbl.iter
      (fun src count ->
        for _ = 1 to count do
          let (g0, seg) : int * 'a array = Comm.recv t.comm ~src () in
          Array.blit seg 0 out (g0 - lo) (Array.length seg)
        done)
      expected;
    { t with local = out }
  end

(* applybrdcast f i A: apply [f] on the processor owning global element [i]
   and broadcast the result. *)
let applybrdcast ~flops f i t =
  if i < 0 || i >= t.total then invalid_arg "Dvec.applybrdcast: index out of range";
  let owner = owner_of ~total:t.total ~parts:(Comm.size t.comm) i in
  let v =
    if Comm.rank t.comm = owner then begin
      charge t flops;
      Some (f t.local.(i - t.offset))
    end
    else None
  in
  Comm.bcast t.comm ~root:owner v

(* fetch f: result element g is the input element at f g — irregular
   one-to-one / one-to-many movement.  Two phases of all-to-all traffic:
   index requests out, values back. *)
let fetch f t =
  let p = Comm.size t.comm in
  let total = t.total in
  let me = Comm.rank t.comm in
  let lo = t.offset in
  let n = Array.length t.local in
  (* Requests: for each of my result slots, the global source index. *)
  let requests = Array.make p [] in
  for i = n - 1 downto 0 do
    let src = f (lo + i) in
    if src < 0 || src >= total then invalid_arg "Dvec.fetch: source index out of range";
    let owner = owner_of ~total ~parts:p src in
    requests.(owner) <- (i, src) :: requests.(owner)
  done;
  let req_arrays = Array.map Array.of_list requests in
  let incoming = Comm.alltoall t.comm req_arrays in
  (* Serve: look up each requested element in my chunk. *)
  charge t (Kernels.copy_flops n);
  let replies =
    Array.map (fun reqs -> Array.map (fun (slot, src) -> (slot, t.local.(src - lo))) reqs) incoming
  in
  let answers = Comm.alltoall t.comm replies in
  let out = Array.copy t.local in
  Array.iter (Array.iter (fun (slot, v) -> out.(slot) <- v)) answers;
  { t with local = out }

(* send f: input element g is delivered to every destination in f g;
   destinations accumulate vectors of arrivals (ascending source order, the
   same deterministic refinement as the host library). *)
let send f t =
  let p = Comm.size t.comm in
  let total = t.total in
  let lo = t.offset in
  let n = Array.length t.local in
  let outgoing = Array.make p [] in
  for i = n - 1 downto 0 do
    let g = lo + i in
    List.iter
      (fun dest ->
        if dest < 0 || dest >= total then invalid_arg "Dvec.send: destination out of range";
        let owner = owner_of ~total ~parts:p dest in
        outgoing.(owner) <- (g, dest, t.local.(i)) :: outgoing.(owner))
      (List.rev (f g))
  done;
  let incoming = Comm.alltoall t.comm (Array.map Array.of_list outgoing) in
  charge t (Kernels.copy_flops n);
  let buckets = Array.make n [] in
  (* Ascending source order: collect all arrivals, sort per slot by source
     index (arrivals per sender are already ascending). *)
  let all = Array.to_list incoming |> List.map Array.to_list |> List.concat in
  let all = List.sort (fun (g1, _, _) (g2, _, _) -> compare g1 g2) all in
  List.iter (fun (_, dest, v) -> buckets.(dest - lo) <- v :: buckets.(dest - lo)) all;
  { t with local = Array.map (fun l -> Array.of_list (List.rev l)) buckets }

(* Pointwise pairing of two identically-distributed vectors (local, no
   communication) — the distributed align. *)
let zip a b =
  if a.total <> b.total || Array.length a.local <> Array.length b.local then
    invalid_arg "Dvec.zip: distribution mismatch";
  { a with local = Array.map2 (fun x y -> (x, y)) a.local b.local }
