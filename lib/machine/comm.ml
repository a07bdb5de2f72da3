(* MPI-style communicators and collective operations, built entirely on the
   engine's point-to-point sends — exactly the layering the paper relies
   on ("skeletons can be efficiently implemented as libraries or macros
   defined over base languages and standard communication libraries").

   A communicator names an ordered subset of the machine's processors; a
   processor's rank *within* the communicator is its index in that order.
   Nested parallelism (paper Section 2.1: "an element of a nested array
   corresponds to the concept of a group in MPI") is supported via [split].

   The collectives are written once against [Engine.t], so the same
   program text runs on the discrete-event simulator (where [work] charges
   simulated time and messages are priced by the cost model) and on the
   multicore engine (real domains, zero-copy messages, wall-clock time).

   Tag discipline: every collective call consumes one sequence number from
   the communicator, and all its internal messages carry a tag derived from
   (sequence, opcode) in a reserved tag space.  Since SPMD members execute
   the same sequence of collectives, the sequence numbers agree across the
   group, so overlapping traffic from adjacent collectives can never be
   mis-matched, even when some members run ahead.  User point-to-point
   traffic lives in a second reserved space ([user_space]) so tagged
   sends/receives cannot collide with collective internals either.  The
   layout is [Engine]'s, whose fault reports name the tags they print.

   Sequence numbers only order one communicator's own calls: a child made
   by [split] starts again at 0, so without more its collectives would
   share tags with its parent's, and a member that runs the two in
   another order would take one's message for the other's.  Every tag
   therefore also carries the communicator's context id, above the other
   bits, as MPI's communicators do — p2p tags included.  The world is
   context 0.  A child's context is computed by every member from what
   they all hold: the parent's context and how many splits the parent
   has made before this one ([k]; SPMD discipline makes members agree on
   it as on the seq), so [split] sends nothing extra.  It is the parent's
   code extended by the Elias gamma code of [k + 1].  Gamma codes are
   prefix-free, so the context spells out the chain of split indices
   from the world, and that chain names one communicator per member:
   two communicators with a member in common have the same context only
   if they are the same communicator.  (Children of one split share
   their context, but no member.)  A context is the chain's code behind
   a leading 1, minus 1, so the world's empty chain is 0; it must stay
   below [Engine.max_context], i.e. the code within 31 bits.  The split
   index rather than the split's seq keeps codes short: each round of a
   hyperquicksort splits its group once, at index 0, for one bit. *)

type t = {
  eng : Engine.t;
  ranks : int array;  (* global ranks, ordered; my position defines my rank *)
  rank_index : int array;  (* global rank -> index in [ranks]; -1 = not a member *)
  my_index : int;
  context : int;
  mutable seq : int;
  mutable splits : int;  (* splits made so far *)
}

let world eng =
  let n = eng.Engine.size in
  {
    eng;
    ranks = Array.init n Fun.id;
    rank_index = Array.init n Fun.id;
    my_index = eng.Engine.rank;
    context = 0;
    seq = 0;
    splits = 0;
  }

let of_ranks eng ~context ranks =
  if context < 0 || context >= Engine.max_context then invalid_arg "Comm.of_ranks: context out of range";
  (* One pass builds the reverse map (global rank -> index), which also
     finds the caller's index and rejects duplicates — [recv_any] then maps
     sources in O(1) instead of rescanning [ranks] per message. *)
  let me = eng.Engine.rank in
  let rank_index = Array.make eng.Engine.size (-1) in
  Array.iteri
    (fun i r ->
      if r < 0 || r >= eng.Engine.size then invalid_arg "Comm.of_ranks: rank out of range";
      if rank_index.(r) >= 0 then invalid_arg "Comm.of_ranks: duplicate rank";
      rank_index.(r) <- i)
    ranks;
  if rank_index.(me) < 0 then invalid_arg "Comm.of_ranks: calling processor not a member";
  { eng; ranks = Array.copy ranks; rank_index; my_index = rank_index.(me); context; seq = 0; splits = 0 }

let rank t = t.my_index
let size t = Array.length t.ranks
let engine t = t.eng

(* Engine conveniences, so programs never need to name the engine. *)
let work t d = t.eng.Engine.work d
let work_flops t n = Engine.work_flops t.eng n
let sleep t d = t.eng.Engine.sleep d
let cost t = t.eng.Engine.cost
let time t = t.eng.Engine.time ()
let note t msg = t.eng.Engine.note msg

let workspace t kind n =
  Engine.check_kind "Comm.workspace" kind;
  if n < 0 then invalid_arg "Comm.workspace: negative length";
  Workspace.count_lent ();
  t.eng.Engine.workspace kind n

let input t kind =
  Engine.check_kind "Comm.input" kind;
  t.eng.Engine.input kind

(* 24 bits of sequence + 4 of opcode keeps every collective tag inside
   [tag_space, user_space).  Aliasing a live collective's tag would be a
   silent-corruption bug, so genuine exhaustion fails loudly instead of
   wrapping — 2^24 collectives is far beyond any single communicator's
   realistic lifetime, and [split] hands out fresh communicators anyway. *)
let[@inline] in_context t tag = tag lor (t.context lsl Engine.context_shift)

let fresh_tag t opcode =
  if t.seq >= Engine.max_seq then
    invalid_arg
      (Printf.sprintf "Comm.fresh_tag: collective sequence exhausted (%d tags); split or rebuild \
                       the communicator"
         Engine.max_seq);
  let tag = in_context t (Engine.tag_space lor (t.seq lsl 4) lor opcode) in
  t.seq <- t.seq + 1;
  tag

(* Test-only: jump the sequence counter to probe the overflow boundary
   without issuing 2^24 collectives.  All members must agree, as with any
   collective-order obligation. *)
let unsafe_set_seq t seq =
  if seq < 0 then invalid_arg "Comm.unsafe_set_seq: negative";
  t.seq <- seq

let sendi t ~tag dst_index v = t.eng.Engine.send ~dest:t.ranks.(dst_index) ~tag v

let recvi : type a. t -> tag:int -> int -> a =
 fun t ~tag src_index -> t.eng.Engine.recv ~src:t.ranks.(src_index) ~tag ()

(* --- barrier: dissemination algorithm, O(log m) rounds ------------------ *)

let barrier t =
  let m = size t in
  if m > 1 then begin
    let tag = fresh_tag t Engine.opcode_barrier in
    let i = t.my_index in
    let mask = ref 1 in
    while !mask < m do
      sendi t ~tag ((i + !mask) mod m) ();
      (recvi t ~tag ((i - !mask + m) mod m) : unit);
      mask := !mask lsl 1
    done
  end

(* --- broadcast: binomial tree rooted at [root] -------------------------- *)

let vrank t ~root = (t.my_index - root + size t) mod size t
let unvrank t ~root v = (v + root) mod size t

let bcast (type a) t ~root (v : a option) : a =
  let m = size t in
  if root < 0 || root >= m then invalid_arg "Comm.bcast: bad root";
  let tag = fresh_tag t Engine.opcode_bcast in
  let vr = vrank t ~root in
  let value : a option ref = ref v in
  if vr = 0 && !value = None then invalid_arg "Comm.bcast: root must supply a value";
  let mask = ref 1 in
  while !mask < m do
    let mk = !mask in
    if vr >= mk && vr < 2 * mk && !value = None then
      value := Some (recvi t ~tag (unvrank t ~root (vr - mk)));
    if vr < mk && vr + mk < m then
      sendi t ~tag (unvrank t ~root (vr + mk)) (Option.get !value);
    mask := mk lsl 1
  done;
  match !value with
  | Some v -> v
  | None -> assert false (* m = 1 and not root is impossible *)

(* --- reduce: binomial tree in true rank order ---------------------------
   The tree is always rooted at member 0, so partial results combine as
   (v0·v1)·(v2·v3)·… — associativity-only, valid for non-commutative
   operators at EVERY root.  Rooting the tree at [root] instead (the
   obvious "rotate by root" trick bcast uses) would fold in virtual-rank
   order v_root·…·v_{m-1}·v_0·…, a rotated product.  For root ≠ 0 the
   result takes one extra hop from member 0 to the root; root = 0 (and
   hence allreduce) is byte-for-byte the same traffic as before. *)

let reduce t ~root op v =
  let m = size t in
  if root < 0 || root >= m then invalid_arg "Comm.reduce: bad root";
  let tag = fresh_tag t Engine.opcode_reduce in
  let i = t.my_index in
  let acc = ref v in
  let rec go mask =
    if mask < m then
      if i land mask <> 0 then sendi t ~tag (i - mask) !acc
      else begin
        let partner = i + mask in
        if partner < m then begin
          let w = recvi t ~tag partner in
          acc := op !acc w
        end;
        go (mask lsl 1)
      end
  in
  go 1;
  if root = 0 then if i = 0 then Some !acc else None
  else if i = 0 then begin
    sendi t ~tag root !acc;
    None
  end
  else if i = root then Some (recvi t ~tag 0)
  else None

let allreduce t op v =
  match reduce t ~root:0 op v with
  | Some r -> bcast t ~root:0 (Some r)
  | None -> bcast t ~root:0 None

(* --- gather: binomial combining of (index, value) segments -------------- *)

let gather (type a) t ~root (v : a) : a array option =
  let m = size t in
  if root < 0 || root >= m then invalid_arg "Comm.gather: bad root";
  let tag = fresh_tag t Engine.opcode_gather in
  let vr = vrank t ~root in
  let chunks : (int * a) list ref = ref [ (t.my_index, v) ] in
  let rec go mask =
    if mask < m then
      if vr land mask <> 0 then sendi t ~tag (unvrank t ~root (vr - mask)) !chunks
      else begin
        let partner = vr + mask in
        if partner < m then begin
          let more : (int * a) list = recvi t ~tag (unvrank t ~root partner) in
          chunks := !chunks @ more
        end;
        go (mask lsl 1)
      end
  in
  go 1;
  if t.my_index = root then begin
    let out = Array.make m v in
    List.iter (fun (i, x) -> out.(i) <- x) !chunks;
    Some out
  end
  else None

let allgather t v =
  match gather t ~root:0 v with
  | Some arr -> bcast t ~root:0 (Some arr)
  | None -> bcast t ~root:0 None

(* --- scatter: binomial tree pushing (vrank, value) segments downward ----
   At step [mask] a holder keeps pairs with vrank ≡ mine (mod 2*mask) and
   forwards pairs ≡ mine+mask (mod 2*mask); after the last step each member
   holds exactly its own pair. *)

let scatter (type a) t ~root (arr : a array option) : a =
  let m = size t in
  if root < 0 || root >= m then invalid_arg "Comm.scatter: bad root";
  let tag = fresh_tag t Engine.opcode_scatter in
  let vr = vrank t ~root in
  let segment : (int * a) list ref =
    if t.my_index = root then begin
      match arr with
      | Some a when Array.length a = m ->
          ref (List.init m (fun i -> ((i - root + m) mod m, a.(i))))
      | Some _ -> invalid_arg "Comm.scatter: array length must equal communicator size"
      | None -> invalid_arg "Comm.scatter: root must supply the array"
    end
    else ref []
  in
  let mask = ref 1 in
  while !mask < m do
    let mk = !mask in
    if vr >= mk && vr < 2 * mk && !segment = [] then
      segment := (recvi t ~tag (unvrank t ~root (vr - mk)) : (int * a) list);
    if vr < mk && vr + mk < m then begin
      let keep, give =
        List.partition (fun (u, _) -> u mod (2 * mk) <> (vr + mk) mod (2 * mk)) !segment
      in
      segment := keep;
      sendi t ~tag (unvrank t ~root (vr + mk)) give
    end;
    mask := mk lsl 1
  done;
  match List.find_opt (fun (u, _) -> u = vr) !segment with
  | Some (_, v) -> v
  | None -> invalid_arg "Comm.scatter: internal segment routing error"

(* --- all-to-all: m-1 rounds of pairwise exchange ------------------------ *)

let alltoall (type a) t (a : a array) : a array =
  let m = size t in
  if Array.length a <> m then invalid_arg "Comm.alltoall: array length must equal communicator size";
  let tag = fresh_tag t Engine.opcode_alltoall in
  let i = t.my_index in
  let out = Array.make m a.(i) in
  for r = 1 to m - 1 do
    let dst = (i + r) mod m and src = (i - r + m) mod m in
    sendi t ~tag dst a.(dst);
    out.(src) <- recvi t ~tag src
  done;
  out

(* --- inclusive scan: Hillis–Steele, O(log m) rounds --------------------- *)

let scan t op v =
  let m = size t in
  let tag = fresh_tag t Engine.opcode_scan in
  let i = t.my_index in
  let prefix = ref v in
  let d = ref 1 in
  while !d < m do
    let dd = !d in
    if i + dd < m then sendi t ~tag (i + dd) !prefix;
    if i - dd >= 0 then begin
      let w = recvi t ~tag (i - dd) in
      prefix := op w !prefix
    end;
    d := dd lsl 1
  done;
  !prefix

(* --- split: colors and keys, like MPI_Comm_split ------------------------ *)

(* The context of the children of [t]'s next split: [t]'s code, then the
   gamma code of [n = t.splits + 1] (as bits, [n] itself behind as many
   zeros as [n] has bits after its leading 1). *)
let rec bit_length n = if n = 0 then 0 else 1 + bit_length (n lsr 1)

let child_context t =
  let n = t.splits + 1 and code = t.context + 1 in
  let width = (2 * bit_length n) - 1 in
  if bit_length code + width > 32 then
    invalid_arg
      (Printf.sprintf "Comm.split: context ids exhausted (split %d of context %d needs more than 31 \
                       bits of split codes)"
         t.splits t.context);
  t.splits <- n;
  ((code lsl width) lor n) - 1

let split t ~color ~key =
  let context = child_context t in
  ignore (fresh_tag t Engine.opcode_split);
  let triples = allgather t (color, key, t.eng.Engine.rank) in
  let mine =
    triples |> Array.to_list
    |> List.filter (fun (c, _, _) -> c = color)
    |> List.stable_sort (fun (_, k1, r1) (_, k2, r2) -> compare (k1, r1) (k2, r2))
    |> List.map (fun (_, _, r) -> r)
    |> Array.of_list
  in
  of_ranks t.eng ~context mine

(* --- point-to-point within a communicator ------------------------------- *)

let p2p_tag t = function
  | None -> in_context t (Engine.tag_space lor Engine.opcode_sendrecv)
  | Some u ->
      if u < 0 || u >= Engine.user_space then invalid_arg "Comm: user tag out of range";
      in_context t (Engine.user_space lor u)

let send t ~dest ?tag v =
  if dest < 0 || dest >= size t then invalid_arg "Comm.send: bad destination";
  t.eng.Engine.send ~dest:t.ranks.(dest) ~tag:(p2p_tag t tag) v

let recv : type a. t -> src:int -> ?tag:int -> ?timeout:float -> unit -> a =
 fun t ~src ?tag ?timeout () ->
  if src < 0 || src >= size t then invalid_arg "Comm.recv: bad source";
  t.eng.Engine.recv ?timeout ~src:t.ranks.(src) ~tag:(p2p_tag t tag) ()

let recv_any : type a. t -> ?tag:int -> ?timeout:float -> unit -> int * a =
 fun t ?tag ?timeout () ->
  let src, v = t.eng.Engine.recv_any ?timeout ~tag:(p2p_tag t tag) () in
  let idx = t.rank_index.(src) in
  if idx < 0 then invalid_arg "Comm.recv_any: message from outside the communicator";
  (idx, v)

let exchange t ~partner v =
  (* Symmetric pairwise exchange: both sides send then receive, which is
     deadlock-free because no engine's send waits for a matching receive
     (a procs send blocked on a full socket keeps reading its inbound
     streams, so both partners drain each other). *)
  send t ~dest:partner v;
  recv t ~src:partner ()

(* --- bulk slice tier ----------------------------------------------------
   Typed unboxed counterparts (float64 or int elements) of the
   point-to-point operations and the data-movement collectives, built on
   [Engine.send_slice]: every call below moves each hop's worth of data as
   exactly ONE message, however long the slice — this is the coalescing
   contract the halo-exchange and rotate optimisations build on.  Slice
   traffic shares the ordinary tag spaces, so slice and boxed messages on
   the same (src, tag) channel keep their relative order; a channel must
   still carry one payload type at a time (the usual recv typing
   discipline). *)

let send_slice t ~dest ?tag s =
  if dest < 0 || dest >= size t then invalid_arg "Comm.send_slice: bad destination";
  t.eng.Engine.send_slice ~dest:t.ranks.(dest) ~tag:(p2p_tag t tag) s

let recv_slice t ~src ?tag ?timeout () =
  if src < 0 || src >= size t then invalid_arg "Comm.recv_slice: bad source";
  t.eng.Engine.recv_slice ?timeout ~src:t.ranks.(src) ~tag:(p2p_tag t tag) ()

let send_slice_i t ~tag dst_index s = t.eng.Engine.send_slice ~dest:t.ranks.(dst_index) ~tag s
let recv_slice_i t ~tag src_index = t.eng.Engine.recv_slice ~src:t.ranks.(src_index) ~tag ()

let sub1 s pos len = Bigarray.Array1.sub s pos len
let dim1 s = Bigarray.Array1.dim s

let scatter_slice t ~root (s : ('k, 'e) Engine.slice option) : ('k, 'e) Engine.slice =
  (* Flat tree: the root sends each member its block as one direct message
     (m-1 messages total, zero-copy sub-views of the root's storage on the
     multicore engine).  A binomial tree would route segments through
     intermediaries — more total bytes on the wire for bulk payloads. *)
  let m = size t in
  if root < 0 || root >= m then invalid_arg "Comm.scatter_slice: bad root";
  let tag = fresh_tag t Engine.opcode_slice in
  if t.my_index = root then begin
    let s =
      match s with Some s -> s | None -> invalid_arg "Comm.scatter_slice: root must supply a slice"
    in
    (* the block geometry of the scl_sim distributed vectors *)
    let b = Scl.Partition.block_bounds ~n:(dim1 s) ~p:m in
    for i = 0 to m - 1 do
      if i <> root then send_slice_i t ~tag i (sub1 s b.(i) (b.(i + 1) - b.(i)))
    done;
    sub1 s b.(root) (b.(root + 1) - b.(root))
  end
  else recv_slice_i t ~tag root

let gather_slices t ~root (local : ('k, 'e) Engine.slice) : ('k, 'e) Engine.slice array option =
  (* Mirror of [scatter_slice]: one direct message per non-root member,
     the parts handed back in rank order as they arrived (members may hold
     blocks of any length). *)
  let m = size t in
  if root < 0 || root >= m then invalid_arg "Comm.gather_slices: bad root";
  let tag = fresh_tag t Engine.opcode_slice in
  if t.my_index = root then begin
    let parts = Array.make m local in
    for i = 0 to m - 1 do
      if i <> root then parts.(i) <- recv_slice_i t ~tag i
    done;
    Some parts
  end
  else begin
    send_slice_i t ~tag root local;
    None
  end

let gather_slice t ~root (local : ('k, 'e) Engine.slice) : ('k, 'e) Engine.slice option =
  (* [gather_slices], concatenated in rank order at the root (offsets are
     derived from the received lengths) *)
  Option.map
    (fun parts ->
      let total = Array.fold_left (fun acc s -> acc + dim1 s) 0 parts in
      let out = Bigarray.Array1.create (Bigarray.Array1.kind local) Bigarray.c_layout total in
      let off = ref 0 in
      Array.iter
        (fun s ->
          let n = dim1 s in
          Bigarray.Array1.blit s (sub1 out !off n);
          off := !off + n)
        parts;
      out)
    (gather_slices t ~root local)
