(* Block-distributed unboxed float vectors: the flat-tier counterpart of
   [Dvec] for numeric workloads.

   An Fvec's local chunk is a [Scl.Flat.float1] (C-layout Bigarray), so
   data movement goes through the engines' bulk slice tier: no
   marshalling, no per-element boxing, and on the multicore engine a
   transfer is one zero-copy window handoff.  Collective constructors
   (scatter/gather/allgather) ride [Comm]'s slice collectives, and
   [rotate] coalesces everything a processor owes a neighbour into ONE
   bulk message per destination per call — versus one boxed message per
   segment (and a marshalled tuple each) on the [Dvec] path.

   [Dvec] remains the executable specification: the flat operations are
   differential-tested against it, and the numeric algorithms keep their
   boxed variants as oracles. *)

open Machine

type t = {
  comm : Comm.t;
  local : Scl.Flat.float1;
  offset : int;  (* global index of local element 0 *)
  total : int;
}

let comm t = t.comm
let local t = t.local
let local_length t = Scl.Flat.length t.local
let total t = t.total
let offset t = t.offset
let block_bounds = Dvec.block_bounds
let owner_of = Dvec.owner_of
let charge t flops = Comm.work_flops t.comm flops

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
  (* [scatter_slice] uses the same block geometry as [block_bounds]; the
     received window may alias the root's storage (multicore zero-copy),
     and an Fvec owns mutable local state, so take a private copy — one
     blit, still no marshalling or boxing. *)
  let chunk = Comm.scatter_slice comm ~root a in
  let b = block_bounds ~total ~parts:p in
  { comm; local = Scl.Flat.copy chunk; offset = b.(Comm.rank comm); total }

let gather ~root t : Scl.Flat.float1 option = Comm.gather_slice t.comm ~root t.local
let allgather t : Scl.Flat.float1 = Comm.allgather_slice t.comm t.local

(* rotate k: result element at global index g is the input element at
   (g + k) mod total.  Same segment geometry as [Dvec.rotate], but all
   segments bound for one destination are coalesced into a single bulk
   message (at most p-1 sends per member per call), and no metadata
   travels: the receiver re-derives each sender's segment order from the
   closed-form block bounds, which both sides compute identically. *)
let rotate k t =
  let p = Comm.size t.comm in
  let total = t.total in
  if total = 0 || k mod total = 0 then t
  else begin
    let wrap g = ((g mod total) + total) mod total in
    if p = 1 then begin
      charge t (Kernels.copy_flops total);
      let out = Scl.Flat.create Scl.Flat.float64 total in
      for i = 0 to total - 1 do
        Scl.Flat.set out i (Scl.Flat.get t.local (wrap (i + k)))
      done;
      { t with local = out }
    end
    else begin
      let me = Comm.rank t.comm in
      let lo = t.offset and hi = t.offset + local_length t in
      let floor_div a b = if a >= 0 then a / b else ((a + 1) / b) - 1 in
      (* Outbound: maximal source runs contiguous at the destination
         (split on owner change and on the wrap discontinuity), exactly
         [Dvec.rotate]'s geometry. *)
      let dest_of g = owner_of ~total ~parts:p (wrap (g - k)) in
      let dest_key g = (dest_of g, floor_div (g - k) total) in
      let out_runs = Dvec.runs_by ~lo ~hi dest_key in
      (* Coalesce: one slice per destination, runs packed in ascending
         source order (the order the receiver will re-derive). A lone run
         ships as a zero-copy sub-view; only multi-run destinations pay a
         pack copy. *)
      for dest = 0 to p - 1 do
        if dest <> me then begin
          let mine = List.filter (fun ((d, _), _, _) -> d = dest) out_runs in
          match mine with
          | [] -> ()
          | [ (_, g0, len) ] ->
              Comm.send_slice t.comm ~dest (Scl.Flat.sub_view t.local ~pos:(g0 - lo) ~len)
          | runs ->
              let sz = List.fold_left (fun acc (_, _, len) -> acc + len) 0 runs in
              let pack = Scl.Flat.create Scl.Flat.float64 sz in
              let off = ref 0 in
              List.iter
                (fun (_, g0, len) ->
                  Scl.Flat.blit
                    ~src:(Scl.Flat.sub_view t.local ~pos:(g0 - lo) ~len)
                    ~dst:(Scl.Flat.sub_view pack ~pos:!off ~len);
                  off := !off + len)
                runs;
              Comm.send_slice t.comm ~dest pack
        end
      done;
      let out = Scl.Flat.copy t.local in
      charge t (Kernels.copy_flops (local_length t));
      (* Inbound: my destination runs, grouped by source owner.  For each
         source, its runs arrive concatenated in the sender's ascending
         source-index order — sort my runs by wrap(g0 + k) (the sender-side
         index of the run's first element) to walk the packed slice. *)
      let src_of g = owner_of ~total ~parts:p (wrap (g + k)) in
      let src_key g = (src_of g, floor_div (g + k) total) in
      let in_runs = Dvec.runs_by ~lo ~hi src_key in
      List.iter
        (fun ((dest, _), g0, len) ->
          if dest = me then
            for i = 0 to len - 1 do
              Scl.Flat.set out (wrap (g0 + i - k) - lo) (Scl.Flat.get t.local (g0 + i - t.offset))
            done)
        out_runs;
      for src = 0 to p - 1 do
        if src <> me then begin
          let mine =
            List.filter (fun ((s, _), _, _) -> s = src) in_runs
            |> List.map (fun (_, g0, len) -> (wrap (g0 + k), g0, len))
            |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
          in
          match mine with
          | [] -> ()
          | runs ->
              let slice = Comm.recv_slice t.comm ~src () in
              let off = ref 0 in
              List.iter
                (fun (_, g0, len) ->
                  Scl.Flat.blit
                    ~src:(Scl.Flat.sub_view slice ~pos:!off ~len)
                    ~dst:(Scl.Flat.sub_view out ~pos:(g0 - lo) ~len);
                  off := !off + len)
                runs
        end
      done;
      { t with local = out }
    end
  end

(* fetch f: result element at global index g is the input element at [f g]
   — the irregular Fetch pattern.  [Dvec.fetch] pays two all-to-all phases
   (marshalled index requests out, marshalled (slot, value) pairs back);
   here NO metadata travels at all.  [f] is pure and the block geometry is
   closed-form, so both sides can evaluate the same plan: the sender walks
   each destination's slot range in ascending global order and packs the
   values it owns into ONE slice per destination (at most p-1 sends per
   member, zero-copy when the sources form one contiguous ascending run);
   the receiver walks its own slots in the same ascending order, pulling
   from a per-source cursor — the packed order is re-derived, never
   transmitted.  Results are bitwise-identical to [Dvec.fetch]. *)
let fetch f t =
  let p = Comm.size t.comm in
  let total = t.total in
  let check g =
    let s = f g in
    if s < 0 || s >= total then invalid_arg "Fvec.fetch: source index out of range";
    s
  in
  if total = 0 then t
  else if p = 1 then begin
    charge t (Kernels.copy_flops total);
    let out = Scl.Flat.create Scl.Flat.float64 total in
    for g = 0 to total - 1 do
      Scl.Flat.set out g (Scl.Flat.get t.local (check g))
    done;
    { t with local = out }
  end
  else begin
    let me = Comm.rank t.comm in
    let b = block_bounds ~total ~parts:p in
    let lo = t.offset and hi = t.offset + local_length t in
    (* Outbound: for each other member, collect the values I own for its
       slots, in ITS ascending slot order (the order it will consume). *)
    for dest = 0 to p - 1 do
      if dest <> me then begin
        (* First pass: count, and detect the single-contiguous-run case
           (sources consecutive ascending), which ships as a zero-copy
           sub-view of my chunk. *)
        let cnt = ref 0 and first_src = ref 0 and prev_src = ref 0 and contiguous = ref true in
        for g = b.(dest) to b.(dest + 1) - 1 do
          let s = f g in
          if s >= lo && s < hi then begin
            if !cnt = 0 then first_src := s
            else if s <> !prev_src + 1 then contiguous := false;
            prev_src := s;
            incr cnt
          end
        done;
        if !cnt > 0 then
          if !contiguous then
            Comm.send_slice t.comm ~dest
              (Scl.Flat.sub_view t.local ~pos:(!first_src - lo) ~len:!cnt)
          else begin
            let pack = Scl.Flat.create Scl.Flat.float64 !cnt in
            let off = ref 0 in
            for g = b.(dest) to b.(dest + 1) - 1 do
              let s = f g in
              if s >= lo && s < hi then begin
                Scl.Flat.set pack !off (Scl.Flat.get t.local (s - lo));
                incr off
              end
            done;
            Comm.send_slice t.comm ~dest pack
          end
      end
    done;
    charge t (Kernels.copy_flops (local_length t));
    (* Inbound: which owners feed my slots, and how many values each
       sends — re-derived from the same geometry, no metadata. *)
    let counts = Array.make p 0 in
    for g = lo to hi - 1 do
      let o = owner_of ~total ~parts:p (check g) in
      counts.(o) <- counts.(o) + 1
    done;
    let slices = Array.make p None in
    for src = 0 to p - 1 do
      if src <> me && counts.(src) > 0 then slices.(src) <- Some (Comm.recv_slice t.comm ~src ())
    done;
    (* Reassemble: walk my slots ascending, pulling each value from its
       owner's packed slice via a per-owner cursor — the exact order the
       sender packed. *)
    let out = Scl.Flat.create Scl.Flat.float64 (local_length t) in
    let cursors = Array.make p 0 in
    for g = lo to hi - 1 do
      let s = f g in
      let o = owner_of ~total ~parts:p s in
      if o = me then Scl.Flat.set out (g - lo) (Scl.Flat.get t.local (s - lo))
      else begin
        let slice = match slices.(o) with Some sl -> sl | None -> assert false in
        Scl.Flat.set out (g - lo) (Scl.Flat.get slice cursors.(o));
        cursors.(o) <- cursors.(o) + 1
      end
    done;
    { t with local = out }
  end
