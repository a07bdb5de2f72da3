(* Block-distributed unboxed float vectors: the flat-tier counterpart of
   [Dvec]'s distribution for numeric workloads.

   An Fvec's local chunk is a [Scl.Flat.float1] (C-layout Bigarray), so
   scatter and gather ride [Comm]'s slice collectives: no marshalling, no
   per-element boxing, and on the multicore engine a transfer is one
   zero-copy window handoff.  The block geometry is [Dvec]'s, so a flat
   solver and its boxed oracle hold the same elements on every rank. *)

open Machine

type t = {
  comm : Comm.t;
  local : Scl.Flat.float1;
  offset : int;  (* global index of local element 0 *)
  total : int;
}

let local t = t.local
let total t = t.total
let offset t = t.offset

let of_local comm local =
  let lens = Comm.allgather comm (Scl.Flat.length local) in
  let me = Comm.rank comm in
  let offset = ref 0 in
  for i = 0 to me - 1 do
    offset := !offset + lens.(i)
  done;
  { comm; local; offset = !offset; total = Array.fold_left ( + ) 0 lens }

let scatter comm ~root (a : Scl.Flat.float1 option) : t =
  let p = Comm.size comm in
  let total = Comm.bcast comm ~root (Option.map Scl.Flat.length a) in
  (* [scatter_slice] uses the same block geometry as [Dvec.block_bounds];
     the received window may alias the root's storage (multicore
     zero-copy), and an Fvec owns mutable local state, so take a private
     copy — one blit, still no marshalling or boxing. *)
  let chunk = Comm.scatter_slice comm ~root a in
  let b = Dvec.block_bounds ~total ~parts:p in
  { comm; local = Scl.Flat.copy chunk; offset = b.(Comm.rank comm); total }

let gather ~root t : Scl.Flat.float1 option = Comm.gather_slice t.comm ~root t.local
