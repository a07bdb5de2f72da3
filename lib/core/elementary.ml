(* Elementary skeletons (paper Section 2.2): the data-parallel operators
   map, imap, fold, scan over ParArrays.  Each takes an execution backend;
   the sequential backend is the defining semantics. *)

let map ?(exec = Exec.sequential) f pa =
  Par_array.unsafe_of_array (exec.Exec.pmap f (Par_array.unsafe_to_array pa))

let imap ?(exec = Exec.sequential) f pa =
  Par_array.unsafe_of_array (exec.Exec.pmapi f (Par_array.unsafe_to_array pa))

let fold ?(exec = Exec.sequential) op pa =
  if Par_array.length pa = 0 then invalid_arg "Elementary.fold: empty ParArray";
  exec.Exec.preduce op (Par_array.unsafe_to_array pa)

let scan ?(exec = Exec.sequential) op pa =
  Par_array.unsafe_of_array (exec.Exec.pscan op (Par_array.unsafe_to_array pa))

(* Fused compositions: one pass over the data, no intermediate ParArray.
   Semantically [map_fold op f = fold op . map f] etc.; the property suite
   checks the agreement on both backends. *)

let map_fold ?(exec = Exec.sequential) op f pa =
  if Par_array.length pa = 0 then invalid_arg "Elementary.map_fold: empty ParArray";
  exec.Exec.pmap_reduce f op (Par_array.unsafe_to_array pa)

let map_scan ?(exec = Exec.sequential) op f pa =
  Par_array.unsafe_of_array (exec.Exec.pmap_scan f op (Par_array.unsafe_to_array pa))

let map_compose ?(exec = Exec.sequential) f g pa =
  Par_array.unsafe_of_array (exec.Exec.pmap (fun x -> f (g x)) (Par_array.unsafe_to_array pa))

let zip_with ?(exec = Exec.sequential) f a b =
  if Par_array.length a <> Par_array.length b then
    invalid_arg "Elementary.zip_with: length mismatch";
  let bb = Par_array.unsafe_to_array b in
  imap ~exec (fun i x -> f x bb.(i)) a

(* fold over an empty-able array with an explicit unit. *)
let fold_with_unit ?(exec = Exec.sequential) op unit_v pa =
  if Par_array.length pa = 0 then unit_v else fold ~exec op pa

(* Exclusive scan derived from the inclusive one: <u, x0, x0+x1, ...>
   truncated to the input length. *)
let scan_exclusive ?(exec = Exec.sequential) op unit_v pa =
  let n = Par_array.length pa in
  if n = 0 then pa
  else begin
    let inc = scan ~exec op pa in
    Par_array.init n (fun i -> if i = 0 then unit_v else Par_array.get inc (i - 1))
  end
