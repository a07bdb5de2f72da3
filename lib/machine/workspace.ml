(* Run-scoped flat buffers, recycled across runs.

   A flat job's large buffers (the root's input copy, the sort scratch,
   merge outputs) are megabytes each, so the allocator maps them fresh
   and unmaps them when they are freed: a steady stream of identical
   jobs paid a page fault per 4 KiB page touched, every run.  Here a run
   borrows them from a free list that outlives the run, so a steady-state
   run allocates nothing new.

   A lease and the free list have the same shape: one shelf per flat
   kind.  One mutex guards the free list and every lease, because the
   ranks of a multicore run borrow from several domains at once; shelves
   hold a few buffers, so a scan under the lock is cheap. *)

type ('k, 'e) shelf = { mutable bufs : ('k, 'e) Engine.slice list }

type lease = {
  floats : (float, Bigarray.float64_elt) shelf;
  ints : (int, Bigarray.int_elt) shelf;
  mutable lent : int;  (* requests served *)
  mutable fresh : int;  (* of them, served from fresh storage *)
}

let lease () = { floats = { bufs = [] }; ints = { bufs = [] }; lent = 0; fresh = 0 }
let free = lease ()
let lock = Mutex.create ()
let obs_reused = Obs.Counter.make "workspace.reused"
let obs_lent = Obs.Counter.make "workspace.lent"

let dim = Bigarray.Array1.dim

(* The smallest buffer holding at least [n] elements, if any. *)
let best_fit n bufs =
  List.fold_left
    (fun best b ->
      if dim b < n then best
      else match best with Some c when dim c <= dim b -> best | _ -> Some b)
    None bufs

(* A buffer of at least [n] elements off the [free] shelf, or a fresh
   one; either way it stays on the [lent] shelf of [l] until the run
   ends. *)
let take l kind n ~free ~lent =
  let reused =
    Mutex.protect lock (fun () ->
        l.lent <- l.lent + 1;
        match best_fit n free.bufs with
        | Some b ->
            free.bufs <- List.filter (fun c -> c != b) free.bufs;
            lent.bufs <- b :: lent.bufs;
            Some b
        | None ->
            l.fresh <- l.fresh + 1;
            None)
  in
  match reused with
  | Some b ->
      if Obs.enabled () then Obs.Counter.incr obs_reused;
      Bigarray.Array1.sub b 0 n
  | None ->
      let b = Engine.fresh kind n in
      Mutex.protect lock (fun () -> lent.bufs <- b :: lent.bufs);
      b

let lend (type k e) l (kind : (k, e) Bigarray.kind) n : (k, e) Engine.slice =
  match kind with
  | Bigarray.Float64 -> take l kind n ~free:free.floats ~lent:l.floats
  | Bigarray.Int -> take l kind n ~free:free.ints ~lent:l.ints
  | _ ->
      Mutex.protect lock (fun () ->
          l.lent <- l.lent + 1;
          l.fresh <- l.fresh + 1);
      Engine.fresh kind n

let count_lent () = if Obs.enabled () then Obs.Counter.incr obs_lent

let lend_input l kind n =
  count_lent ();
  lend l kind n

let counts l = Mutex.protect lock (fun () -> (l.lent, l.fresh))

let wrap l (e : Engine.t) = { e with Engine.workspace = (fun kind n -> lend l kind n) }

let release l =
  Mutex.protect lock (fun () ->
      match (l.floats.bufs, l.ints.bufs) with
      | [], [] -> ()
      | floats, ints ->
          free.floats.bufs <- floats;
          free.ints.bufs <- ints;
          l.floats.bufs <- [];
          l.ints.bufs <- [])

let bytes shelf = List.fold_left (fun acc b -> acc + Bigarray.Array1.size_in_bytes b) 0 shelf.bufs

let retained () =
  Mutex.protect lock (fun () ->
      ( List.length free.floats.bufs + List.length free.ints.bufs,
        bytes free.floats + bytes free.ints ))
