(* Multi-process execution engine: ranks are long-lived OS processes of
   a rank pool, wired pairwise by Unix-domain socketpairs, with a
   shared file beside the sockets for bulk slices and [run_flat]'s data.

   What goes on a rank-to-rank stream, and what its bytes mean, is
   [Wire]'s: frames, the arena rings and their credits, goodbyes and run
   numbers (see wire.mli).  This file moves the bytes: one non-blocking
   [write_some] writes what [Wire.next] offers, and every read lands
   where [Wire.read_into] says and is handed to [Wire.filled].  No send
   waits for a matching receive: a frame that does not fit in the socket
   buffer is written as the buffer drains, and while it waits the sender
   keeps reading every peer's inbound stream through the same [select]
   pump that receives use, so two ranks sending bulk frames to each
   other both progress.  A send returns once its whole frame is in the
   kernel, and can wait only until its destination next enters any
   engine call, finishes, or dies.

   The pool's file.  Each pool has one shared file, opened by the
   process that forks the pool (under /dev/shm, else in the temp
   directory) and unlinked at once, so no name outlives its opening.
   Its front holds the arena, which every run carves into one
   [Wire.ring] per directed channel; the staging region follows.  The
   parent keeps only the descriptor and maps nothing; each rank maps the
   rings once, from offset 0, and a staging window per kind from the end
   of the rings.  A rank that forks a pool of its own gives it a file of
   its own.  The sender blits a slice into the place [Wire.reserve_slice]
   gives it; the receiver copies it out (into a buffer of its run's
   workspace lease under [run_flat], a fresh Bigarray otherwise) as soon
   as [Wire.filled] hands it the frame.  [run_flat]'s bulk data never
   crosses a socket: the parent writes rank 0's input into the staging
   region as raw native-endian words, with [Unix.write] through one
   chunk-sized buffer, before it ships the job, and rank 0 copies it out
   of its window into a buffer of its workspace before its program
   starts.  The producing rank blits its parts into the staging region
   too (rank 0's copy is made by then); the parent reads them back with
   [Unix.read], a chunk at a time, straight into the caller's array.  A
   rank keeps its windows across runs, remapping only when a transfer
   outgrows them (the producing rank grows the file first), so a steady
   stream of identical jobs faults in no staging page.

   The pool.  The first run (or [init]) forks the ranks once; each keeps
   its sockets — one to every other rank, one control socket to the
   parent — and the pool's file, and serves runs until its control
   socket reaches EOF.  Its descriptors sit at the top of a 1024-entry
   descriptor table, away from the low numbers the parent reuses once it
   has closed its own ends of them.  A run is
   one [Marshal [Closures]] image of its program and result form, written
   to the control socket of each rank it uses, behind an int64 length,
   the run's epoch and its number; one [select] loop writes every rank's
   copy, so a large image reaches them together.  A rank that finishes
   cleanly says [Wire.goodbye] to every peer and reads each peer's
   stream up to that peer's goodbye (or EOF), still delivering what it
   reads, so no frame crosses from one run into the next; only then does
   it check for messages it never received, as the other engines do at
   the end of a run.
   A run in which any rank failed, fail-stopped or died retires the
   whole pool — its sockets are in an unknown state, and a replacement
   rank could not be wired to the live ones — and the next run forks a
   new one; so does a run that needs more ranks than the pool has.

   A rank reports to the parent over its control socket: its verdict
   record (counters, fail-stop flag, error, the size of the result that
   follows, if any) as a [Marshal] image behind an int64 length, then
   its result in the form of the runner that started the run —
   [run_collect]'s [Marshal] image on the socket, or [run_flat]'s parts
   blitted into the staging region, followed on the socket by the faults
   that took, which say the region is whole.  The verdict carries the
   flat result's element count, so the parent allocates the result array
   while the rank blits.  The parent reads only the lowest producing
   rank's result: rank 0 writes its own at once, and any other producing
   rank waits for a one-byte answer saying whether it is wanted, so that
   only one rank writes the staging region.  A rank that dies before its
   result has arrived whole is a crash.

   Crash detection is the point of this engine: a peer that dies (exit,
   signal, [EPIPE]) leaves EOF on its socket *without* the goodbye
   frame, and an untimed receive that provably waits on such a peer
   raises [Fault.Crashed] — a real process death, not a simulated one.
   EOF *with* goodbye means a clean finish; waiting on it is a protocol
   bug and raises [Fault.Deadlock].  Receives carrying a timeout never map
   peer death to an exception: they wait out their deadline and raise
   [Fault.Timeout], which is what the farm's failure detector (catching
   only [Timeout]) relies on.

   What is deliberately NOT here: global quiescence detection (a wait
   cycle among live processes hangs — there is no shared view to prove
   it), zero-copy (everything crosses the boundary by value: an arena
   slice is copied in by the sender and out by the receiver), and
   cross-process [Obs] aggregation (ranks count sends/receives, page
   faults, CPU time and workspace leases and ship the totals home in
   their verdict, and the faults of staging a result after it). *)

exception Child_failure of int * string
exception Fork_after_domain

let () =
  Printexc.register_printer (function
    | Child_failure (rank, msg) ->
        Some (Printf.sprintf "Machine.Procs.Child_failure(rank %d: %s)" rank msg)
    | _ -> None)

type stats = {
  wall : float;
  total_msgs : int;
  total_recvs : int;
  arena_msgs : int;
  procs_used : int;
  forked : int;
  crashed : int list;
  rank_minflt : int;
  rank_cpu : float;
  rank_lent : int;
  rank_fresh : int;
  job_bytes : int;
}

(* --------------------------------------------------------- the pool's file *)

let ring_elems = 1 lsl 22 (* 32 MiB of rings *)

(* Where the staging region starts, in bytes: right after the rings. *)
let stage_pos = 8 * ring_elems

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* A new file at [path], open and unlinked before anything else can
   fail: no name outlives this call. *)
let open_unlinked path =
  match Unix.openfile path [ O_RDWR; O_CREAT; O_EXCL; O_CLOEXEC ] 0o600 with
  | exception Unix.Unix_error _ -> None
  | fd ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      Some fd

(* A new pool's file, open and already unlinked, under /dev/shm or else
   in the temp directory, and as long as its rings: no rank that maps
   them grows the file under another's blocks. *)
let open_pool_file () =
  let path dir = Printf.sprintf "%s/scl-arena-%d" dir (Unix.getpid ()) in
  match List.find_map (fun dir -> open_unlinked (path dir)) [ "/dev/shm"; Filename.get_temp_dir_name () ] with
  | Some fd -> (
      match Unix.ftruncate fd stage_pos with
      | () -> fd
      | exception e ->
          close_noerr fd;
          raise e)
  | None -> failwith "Procs: cannot create the pool's file"

(* A rank's mappings of its pool's file: the rings, seen as float64 and
   as int (mapped twice), so a slice of either kind is one blit in and
   one blit out; and a staging window per kind, kept across runs, so a
   steady job touches only pages it has mapped before. *)
type mapped = {
  m_fd : Unix.file_descr;
  m_floats : (float, Bigarray.float64_elt) Engine.slice;
  m_ints : (int, Bigarray.int_elt) Engine.slice;
  mutable s_floats : (float, Bigarray.float64_elt) Engine.slice;
  mutable s_ints : (int, Bigarray.int_elt) Engine.slice;
}

let map_pool_file fd =
  let rings kind = Bigarray.array1_of_genarray (Unix.map_file fd kind Bigarray.c_layout true [| ring_elems |]) in
  {
    m_fd = fd;
    m_floats = rings Bigarray.float64;
    m_ints = rings Bigarray.int;
    s_floats = Engine.fresh Bigarray.float64 0;
    s_ints = Engine.fresh Bigarray.int 0;
  }

(* The first [n] elements of the staging region, seen as [kind].  A
   window too short for them is replaced by one that reaches their end,
   and [Unix.map_file] grows the file to that length first; the old
   window lives on while a view of it does. *)
let window (type k e) m (kind : (k, e) Bigarray.kind) n : (k, e) Engine.slice =
  let fit (w : (k, e) Engine.slice) =
    if Bigarray.Array1.dim w >= n then w
    else
      Bigarray.array1_of_genarray
        (Unix.map_file m.m_fd ~pos:(Int64.of_int stage_pos) kind Bigarray.c_layout true [| n |])
  in
  match kind with
  | Bigarray.Float64 ->
      m.s_floats <- fit m.s_floats;
      Bigarray.Array1.sub m.s_floats 0 n
  | Bigarray.Int ->
      m.s_ints <- fit m.s_ints;
      Bigarray.Array1.sub m.s_ints 0 n
  | _ -> assert false (* [Engine.check_kind] *)

(* -------------------------------------------------------------- child state *)

(* Messages arrived and not yet received, decoded: [Marshal] images as
   they arrive, arena slices as copies.  One [Mailbox] in arrival order
   across all peers: [recv_any] takes the globally oldest match, directed
   [recv] the oldest on its channel — FIFO per (src, tag) either way. *)
type peer = {
  p_rank : int;
  p_fd : Unix.file_descr;
  p_wire : Wire.t;  (* the stream pair's protocol state, kept across runs *)
  mutable p_eof : bool;  (* read side saw EOF (or a hard reset) *)
  mutable p_wdead : bool;  (* write side dead; outbound traffic is dropped *)
}

type cstate = {
  c_rank : int;
  c_procs : int;
  c_t0 : float;  (* the run's epoch, taken in the parent as it starts the run *)
  c_file : mapped;  (* the pool's file: the rings *)
  c_alloc : 'k 'e. ('k, 'e) Bigarray.kind -> int -> ('k, 'e) Engine.slice;
      (* storage for an arena slice's copy *)
  peers : peer option array;  (* index = rank; [None] at [c_rank] *)
  pending : Obj.t Mailbox.t;
  mutable c_sent : int;
  mutable c_recvd : int;
  mutable c_arena_sent : int;
}

let now st = Unix.gettimeofday () -. st.c_t0

let copy_out st view off n =
  let a = st.c_alloc (Bigarray.Array1.kind view) n in
  Bigarray.Array1.blit (Bigarray.Array1.sub view off n) a;
  a

(* ------------------------------------------------------- stream maintenance *)

(* Write what the peer's stream has to say until the socket would block. *)
let rec write_some p =
  if not p.p_wdead then
    match Wire.next p.p_wire with
    | None -> ()
    | Some (b, off, len) -> (
        match Unix.write p.p_fd b off len with
        | n ->
            Wire.advance p.p_wire n;
            write_some p
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
        | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) -> p.p_wdead <- true
        | exception Unix.Unix_error (EINTR, _, _) -> write_some p)

(* A message from [peer]: queue it, an arena slice copied out first. *)
let deliver st peer = function
  | Wire.Message { tag; payload } ->
      Mailbox.push st.pending ~src:peer.p_rank ~tag (Marshal.from_bytes payload 0)
  | Wire.Slice { kind; tag; off; len; _ } ->
      let v =
        match kind with
        | Wire.Floats -> Obj.repr (copy_out st st.c_file.m_floats off len)
        | Wire.Ints -> Obj.repr (copy_out st st.c_file.m_ints off len)
      in
      Mailbox.push st.pending ~src:peer.p_rank ~tag v

(* Read until the socket would block, then pay back what the arena
   frames read freed. *)
let read_peer st peer =
  let continue = ref true in
  while !continue && not peer.p_eof do
    let b, off, len = Wire.read_into peer.p_wire in
    match Unix.read peer.p_fd b off len with
    | 0 -> peer.p_eof <- true
    | n -> List.iter (deliver st peer) (Wire.filled peer.p_wire n)
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> continue := false
    | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> peer.p_eof <- true
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done;
  write_some peer

(* A peer that may still send in this run: neither finished (goodbye
   parsed) nor gone (EOF). *)
let live p = not (p.p_eof || Wire.finished p.p_wire)

(* The longest single wait handed to [select], which rejects a timeout
   too large for its [timeval] with EINVAL; a longer wait loops. *)
let max_wait = 3600.0

(* One fabric pump: wait (up to [timeout] seconds, at most [max_wait];
   negative = forever) for any live peer to become readable — or, with
   [~writing], for that one socket to take more bytes — then read every
   readable peer. *)
let step ?writing st ~timeout =
  let rds =
    Array.fold_left (fun acc -> function Some p when live p -> p.p_fd :: acc | _ -> acc) [] st.peers
  in
  let wrs = match writing with Some p -> [ p.p_fd ] | None -> [] in
  if rds = [] && wrs = [] && timeout < 0.0 then
    (* only reachable from a wait the fail-fast checks proved satisfiable,
       so this is a bug guard, not a semantic path *)
    raise (Fault.Deadlock (Printf.sprintf "p%d: nothing left to wait on" st.c_rank));
  match Unix.select rds wrs [] (Float.min timeout max_wait) with
  | r, _, _ ->
      Array.iter
        (function Some p when List.memq p.p_fd r -> read_peer st p | _ -> ())
        st.peers
  | exception Unix.Unix_error (EINTR, _, _) -> ()

(* --------------------------------------------------------------- receiving *)

(* With no matching message pending, decide whether this wait is provably
   hopeless.  Only consulted by untimed receives: timed ones wait out
   their deadline and raise [Timeout] whatever happened to the peer —
   the failure-detector contract the farm depends on. *)
let no_sender_exn st ~src ~tag ~any_tag =
  let recv () = Engine.describe_recv ~src ~tag ~any_tag in
  if src >= 0 then
    match st.peers.(src) with
    | None ->
        Some
          (Fault.Deadlock
             (Printf.sprintf "p%d: %s from self can never be satisfied" st.c_rank (recv ())))
    | Some p when Wire.finished p.p_wire ->
        Some
          (Fault.Deadlock
             (Printf.sprintf "p%d: %s — rank %d finished cleanly without sending a matching message"
                st.c_rank (recv ()) src))
    | Some p when p.p_eof -> Some (Fault.Crashed src)
    | Some _ -> None
  else
    let others = List.filter_map Fun.id (Array.to_list st.peers) in
    if List.exists live others then None
    else
      match List.find_opt (fun p -> not (Wire.finished p.p_wire)) others with
      | Some p -> Some (Fault.Crashed p.p_rank)
      | None ->
          Some
            (Fault.Deadlock
               (Printf.sprintf
                  "p%d: %s — every other rank finished cleanly without sending a matching message"
                  st.c_rank (recv ())))

(* The position of the pending message a receive takes, once one has
   arrived. *)
let await st ~src ~tag ~any_tag ~deadline =
  let rec loop () =
    let i = Mailbox.find st.pending ~src ~tag ~any_tag in
    if i >= 0 then i
    else if deadline = Float.infinity then begin
      (match no_sender_exn st ~src ~tag ~any_tag with Some e -> raise e | None -> ());
      step st ~timeout:(-1.0);
      loop ()
    end
    else begin
      let remaining = deadline -. now st in
      if remaining <= 0.0 then raise (Engine.timeout ~rank:st.c_rank ~src ~tag ~any_tag ~deadline)
      else begin
        step st ~timeout:remaining;
        loop ()
      end
    end
  in
  loop ()

let take st i : Obj.t =
  st.c_recvd <- st.c_recvd + 1;
  Mailbox.take st.pending i

(* ------------------------------------------------------------------ sending *)

(* Queue a frame with [queue] and hand it whole to the kernel before
   returning.  While the socket is full, keep reading every inbound
   stream: the destination may itself be blocked sending to us.  A dead
   peer (EPIPE) absorbs the frame — traffic to a crashed rank is lost,
   the fail-stop contract. *)
let send_frame st peer queue =
  if not peer.p_wdead then begin
    queue peer.p_wire;
    write_some peer;
    while (not peer.p_wdead) && Wire.backlog peer.p_wire do
      step ~writing:peer st ~timeout:(-1.0);
      write_some peer
    done
  end

(* [v]'s [Marshal] image, or [Fault.Unserializable] saying that [what ()]
   cannot cross a process boundary. *)
let marshal flags v what =
  try Marshal.to_bytes v flags
  with Invalid_argument msg | Failure msg ->
    raise
      (Fault.Unserializable
         (Printf.sprintf "%s cannot cross a process boundary (%s)" (what ()) msg))

let peer_of st dest = match st.peers.(dest) with Some p -> p | None -> assert false

let send_obj st ~dest ~tag v =
  Engine.check_dest "Procs.send" ~size:st.c_procs ~self:st.c_rank dest;
  st.c_sent <- st.c_sent + 1;
  let payload =
    marshal [] v (fun () -> Printf.sprintf "Procs.send: p%d -> p%d tag %d: payload" st.c_rank dest tag)
  in
  send_frame st (peer_of st dest) (fun w -> Wire.send w ~tag payload)

(* A slice goes through the arena when [Wire] finds it room: one blit
   in, and a frame carrying where; anything else is a [Marshal] frame on
   the socket. *)
let send_slice_to (type k e) st ~dest ~tag (s : (k, e) Engine.slice) =
  Engine.check_slice "Procs.send_slice" s;
  Engine.check_dest "Procs.send_slice" ~size:st.c_procs ~self:st.c_rank dest;
  st.c_sent <- st.c_sent + 1;
  let p = peer_of st dest in
  let n = Bigarray.Array1.dim s in
  match Wire.reserve_slice p.p_wire n with
  | Some (off, span) ->
      let kind =
        match Bigarray.Array1.kind s with
        | Bigarray.Float64 ->
            Bigarray.Array1.blit s (Bigarray.Array1.sub st.c_file.m_floats off n);
            Wire.Floats
        | Bigarray.Int ->
            Bigarray.Array1.blit s (Bigarray.Array1.sub st.c_file.m_ints off n);
            Wire.Ints
        | _ -> assert false
      in
      st.c_arena_sent <- st.c_arena_sent + 1;
      send_frame st p (fun w -> Wire.send_slice w ~kind ~tag ~len:n ~off ~span)
  | None -> send_frame st p (fun w -> Wire.send w ~tag (Marshal.to_bytes s []))

(* ----------------------------------------------------------------- shutdown *)

(* Clean finish: say goodbye on each socket (every earlier frame is
   already in the kernel) and write nothing more to it in this run; read
   every peer's stream up to its goodbye (or EOF), still delivering what
   arrives, since the sockets outlive the run and the next run must find
   them empty; then apply the undelivered-message check, so a message
   that arrives after this rank's program returned is found as on the
   other engines — not counting traffic from ranks that crashed, which
   the fail-stop model allows to go unconsumed. *)
let finish_clean st =
  Array.iter (function Some p -> send_frame st p Wire.goodbye | None -> ()) st.peers;
  while Array.exists (function Some p -> live p | None -> false) st.peers do
    step st ~timeout:(-1.0)
  done;
  let crashed src =
    match st.peers.(src) with Some p -> p.p_eof && not (Wire.finished p.p_wire) | None -> false
  in
  Mailbox.check_undelivered ~skip:crashed st.pending ~rank:st.c_rank

(* Fail-stop: slam the sockets shut so peers see EOF without a goodbye
   — that is what [Fault.Crashed] looks like from the outside.  A pooled
   rank that does this serves no further run. *)
let abrupt_close st =
  Array.iter (function Some p -> close_noerr p.p_fd | None -> ()) st.peers

(* ------------------------------------------------------------------- engine *)

let engine st : Engine.t =
  let clock () = now st in
  let recv_from op timeout ~src ~tag =
    Engine.check_src op ~size:st.c_procs src;
    take st (await st ~src ~tag ~any_tag:false ~deadline:(Engine.deadline op clock timeout))
  in
  {
    Engine.rank = st.c_rank;
    size = st.c_procs;
    cost = Cost_model.ap1000;
    send = (fun ~dest ~tag v -> send_obj st ~dest ~tag v);
    recv = (fun ?timeout ~src ~tag () -> Obj.obj (recv_from "Procs.recv" timeout ~src ~tag));
    recv_any =
      (fun ?timeout ?tag () ->
        let deadline = Engine.deadline "Procs.recv_any" clock timeout in
        let tag', any_tag = match tag with None -> (0, true) | Some t -> (t, false) in
        let i = await st ~src:(-1) ~tag:tag' ~any_tag ~deadline in
        let src = Mailbox.src st.pending i in
        (src, Obj.obj (take st i)));
    send_slice = (fun ~dest ~tag s -> send_slice_to st ~dest ~tag s);
    recv_slice =
      (fun ?timeout ~src ~tag () -> Obj.obj (recv_from "Procs.recv_slice" timeout ~src ~tag));
    work = Engine.check_duration "Procs.work";
    sleep =
      (fun d ->
        Engine.check_duration "Procs.sleep" d;
        (* park on [select], pumping the fabric meanwhile: inbound
           frames keep accumulating, so a sleeping rank never holds up a
           peer's send *)
        let until = now st +. d in
        let rec park () =
          let remaining = until -. now st in
          if remaining > 0.0 then begin
            step st ~timeout:remaining;
            park ()
          end
        in
        park ());
    time = clock;
    note = (fun _ -> ());
    workspace = Engine.fresh;
    input = Engine.no_input;
  }

(* ------------------------------------------------------ rank/parent protocol *)

(* Exceptions do not survive [Marshal] (constructor identity is
   per-process), so a rank ships this closed representation and the
   parent rebuilds the real exception. *)
type child_error =
  | E_timeout of string
  | E_crashed of int
  | E_unserializable of string
  | E_deadlock of string
  | E_invalid of string
  | E_failure of string
  | E_other of string

(* A rank's report on one run.  Its result, if any, follows it (see
   [result_form]), not inside it.  The last four fields cover the run
   from its job's arrival to this record. *)
type verdict = {
  v_error : child_error option;
  v_crashed : bool;  (* chaos-style self fail-stop: silent, not an error *)
  v_result : int option;  (* a result follows the record: its [size] *)
  v_sent : int;
  v_recvd : int;
  v_arena : int;
  v_minflt : int;  (* minor page faults *)
  v_cpu : float;  (* user + system seconds *)
  v_lent : int;  (* workspace requests *)
  v_fresh : int;  (* of them, served from fresh storage *)
}

let err_repr = function
  | Fault.Timeout m -> E_timeout m
  | Fault.Crashed r -> E_crashed r
  | Fault.Unserializable m -> E_unserializable m
  | Fault.Deadlock m -> E_deadlock m
  | Invalid_argument m -> E_invalid m
  | Failure m -> E_failure m
  | e -> E_other (Printexc.to_string e)

let reraise_child rank = function
  | E_timeout m -> raise (Fault.Timeout m)
  | E_crashed r -> raise (Fault.Crashed r)
  | E_unserializable m -> raise (Fault.Unserializable m)
  | E_deadlock m -> raise (Fault.Deadlock m)
  | E_invalid m -> invalid_arg m
  | E_failure m -> failwith m
  | E_other m -> raise (Child_failure (rank, m))

let rec write_all fd b off len =
  if len > 0 then
    match Unix.write fd b off len with
    | n -> write_all fd b (off + n) (len - n)
    | exception Unix.Unix_error (EINTR, _, _) -> write_all fd b off len

(* [false] when the stream ends first: EOF, or a reset by a peer that
   died with our last write unread. *)
let rec read_all fd b off len =
  if len = 0 then true
  else
    match Unix.read fd b off len with
    | 0 -> false
    | n -> read_all fd b (off + n) (len - n)
    | exception Unix.Unix_error (EINTR, _, _) -> read_all fd b off len
    | exception Unix.Unix_error (ECONNRESET, _, _) -> false

(* A little-endian int64 length, then that many bytes. *)
let write_sized fd b =
  let hdr = Bytes.create 8 in
  Bytes.set_int64_le hdr 0 (Int64.of_int (Bytes.length b));
  write_all fd hdr 0 8;
  write_all fd b 0 (Bytes.length b)

(* [None] when the stream ends first. *)
let read_sized fd =
  let hdr = Bytes.create 8 in
  if not (read_all fd hdr 0 8) then None
  else
    let b = Bytes.create (Int64.to_int (Bytes.get_int64_le hdr 0)) in
    if read_all fd b 0 (Bytes.length b) then Some b else None

(* Native-endian words of a buffer, unchecked: the staging loops below
   stay inside one chunk by construction, and a bounds check per word
   cost ~1.4 ms per 1M words each way. *)
external get_word : bytes -> int -> int64 = "%caml_bytes_get64u"
external set_word : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Elements [i, i + m) of an array of [kind]'s elements as raw
   native-endian words, written into the parent's chunk buffer: the
   words a rank's staging window reads as that kind.  The
   kind is matched once, so each loop runs unboxed. *)
let encode_array (type k e) (kind : (k, e) Bigarray.kind) (a : k array) ~i ~m b =
  assert (8 * m <= Bytes.length b);
  match kind with
  | Bigarray.Float64 ->
      for j = 0 to m - 1 do
        set_word b (8 * j) (Int64.bits_of_float (Array.unsafe_get a (i + j)))
      done
  | Bigarray.Int ->
      for j = 0 to m - 1 do
        set_word b (8 * j) (Int64.of_int (Array.unsafe_get a (i + j)))
      done
  | _ -> assert false (* [Engine.check_kind] *)

(* The parent's chunk buffer for the staging region, both ways.  A run
   holds the pool's lock throughout, so one run at a time uses it; a
   fresh buffer per run raised [sort-procs]' peak RSS by ~0.15 MB. *)
let parent_buf = Bytes.create Wire.chunk

(* [run_flat]'s input into the staging region, a chunk at a time: the
   parent writes the file and maps nothing. *)
let stage_input fd kind a =
  ignore (Unix.lseek fd stage_pos SEEK_SET);
  let n = Array.length a in
  let i = ref 0 in
  while !i < n do
    let m = min (n - !i) (Wire.chunk / 8) in
    encode_array kind a ~i:!i ~m parent_buf;
    write_all fd parent_buf 0 (8 * m);
    i := !i + m
  done

(* This process's minor page faults so far: field 10 of /proc/self/stat,
   0 where there is no such file. *)
let minor_faults () =
  match Unix.openfile "/proc/self/stat" [ O_RDONLY; O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> 0
  | fd -> (
      let b = Bytes.create 512 in
      let n = Fun.protect ~finally:(fun () -> close_noerr fd) (fun () -> Unix.read fd b 0 512) in
      let line = Bytes.sub_string b 0 n in
      (* the fields after the command name, which is in parentheses *)
      match String.rindex_opt line ')' with
      | None -> 0
      | Some i -> (
          let fields = String.split_on_char ' ' (String.sub line (i + 2) (n - i - 2)) in
          match int_of_string_opt (List.nth fields 7) with Some f -> f | None -> 0))

(* How a producing rank's result ['p] reaches the parent as ['r]: its
   [size] goes in the rank's verdict; the rank [write]s it once it is
   wanted, through its staging window or its control socket; the parent
   [read]s it back, given that size, with the minor faults the rank took
   writing it — [None] when the control socket ends first, the rank
   having died mid-result. *)
type ('p, 'r) result_form = {
  size : 'p -> int;
  write : mapped -> Unix.file_descr -> 'p -> unit;
  read : ctl:Unix.file_descr -> file:Unix.file_descr -> int -> ('r * int) option;
}

(* [run_collect]'s form: the value's [Marshal] image, taken inside the
   rank so that a value which cannot cross is that rank's error, on the
   control socket. *)
let marshalled : (bytes, 'a) result_form =
  {
    size = Bytes.length;
    write = (fun _ -> write_sized);
    read =
      (fun ~ctl ~file:_ _ ->
        Option.map (fun b -> (Marshal.from_bytes b 0, 0)) (read_sized ctl));
  }

(* [run_flat]'s form: every part blitted, in order, into the rank's
   staging window from its start, and then the minor faults that took,
   as an int64 on the control socket, which says the region is whole.
   The parent allocates the result array while the rank blits, then
   decodes the region a chunk at a time straight into it: neither side
   builds a second copy of the whole result. *)
let flat_length parts = Array.fold_left (fun n s -> n + Bigarray.Array1.dim s) 0 parts

let write_flat m ctl (parts : ('k, 'e) Engine.slice array) =
  let f0 = minor_faults () in
  let total = flat_length parts in
  if total > 0 then begin
    let region = window m (Bigarray.Array1.kind parts.(0)) total in
    ignore
      (Array.fold_left
         (fun off s ->
           let n = Bigarray.Array1.dim s in
           Bigarray.Array1.blit s (Bigarray.Array1.sub region off n);
           off + n)
         0 parts)
  end;
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int (minor_faults () - f0));
  write_all ctl b 0 8

let read_flat (type k e) (kind : (k, e) Bigarray.kind) ~ctl ~file total : (k array * int) option =
  let buf = parent_buf in
  (* [decode n pos]: the [n] words just read are elements [pos, pos + n) *)
  let filled (out : k array) decode =
    let rec go pos =
      pos = total
      ||
      let n = min (Bytes.length buf / 8) (total - pos) in
      read_all file buf 0 (8 * n)
      && begin
           decode n pos;
           go (pos + n)
         end
    in
    if not (read_all ctl buf 0 8) then None
    else begin
      let faults = Int64.to_int (Bytes.get_int64_le buf 0) in
      ignore (Unix.lseek file stage_pos SEEK_SET);
      if go 0 then Some (out, faults) else None
    end
  in
  match kind with
  | Bigarray.Float64 ->
      let out = Array.create_float total in
      filled out (fun n pos ->
          for j = 0 to n - 1 do
            Array.unsafe_set out (pos + j) (Int64.float_of_bits (get_word buf (8 * j)))
          done)
  | Bigarray.Int ->
      let out = Array.make total 0 in
      filled out (fun n pos ->
          for j = 0 to n - 1 do
            Array.unsafe_set out (pos + j) (Int64.to_int (get_word buf (8 * j)))
          done)
  | _ -> assert false (* [Engine.check_kind] *)

let flat kind =
  {
    size = flat_length;
    write = write_flat;
    read = read_flat kind;
  }

(* One run as the parent ships it to each rank it uses. *)
type job =
  | Job : {
      j_procs : int;
      j_lend : bool;  (* [run_flat]: workspace and arena copies from the rank's lease *)
      j_input : (('k, 'e) Bigarray.kind * int) option;  (* rank 0's input, staged *)
      j_program : Engine.t -> 'p option;
      j_size : 'p -> int;
      j_write : mapped -> Unix.file_descr -> 'p -> unit;
    }
      -> job

(* ------------------------------------------------------------------- a rank *)

let cpu_seconds () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

(* Serve one run on this rank's pooled sockets [links] (index = peer
   rank) and report it on [ctl].  [true] when the rank can serve another
   run: it finished cleanly, drained every peer, and its report went
   out. *)
let serve ~rank ~file ~ctl ~links ~t0 ~run (Job j) =
  let f0 = minor_faults () and c0 = cpu_seconds () in
  let lease = Workspace.lease () in
  let procs = j.j_procs in
  let peers =
    Array.init procs (fun q ->
        Option.map
          (fun (fd, w) ->
            Wire.start w ~run ~ring:(Wire.ring_of ~elems:ring_elems ~procs ~src:rank ~dst:q);
            { p_rank = q; p_fd = fd; p_wire = w; p_eof = false; p_wdead = false })
          links.(q))
  in
  let st =
    {
      c_rank = rank;
      c_procs = procs;
      c_t0 = t0;
      c_file = file;
      c_alloc = (if j.j_lend then fun kind n -> Workspace.lend lease kind n else Engine.fresh);
      peers;
      pending = Mailbox.create (Obj.repr 0);
      c_sent = 0;
      c_recvd = 0;
      c_arena_sent = 0;
    }
  in
  let eng = engine st in
  let eng = if j.j_lend then Workspace.wrap lease eng else eng in
  let res, error, crashed =
    match
      let eng =
        match j.j_input with
        | Some (kind, n) when rank = 0 ->
            (* a copy, not a view of the mapping: [Marshal] writes a slice
               of a mapped file under a custom-block name no process can
               read back, and the program may send its input boxed *)
            let input = st.c_alloc kind n in
            Bigarray.Array1.blit (window file kind n) input;
            Engine.with_input eng input
        | _ -> eng
      in
      let res = j.j_program eng in
      finish_clean st;
      res
    with
    | res -> (res, None, false)
    | exception Fault.Crashed r when r = rank ->
        abrupt_close st;
        (None, None, true)
    | exception e ->
        abrupt_close st;
        (None, Some (err_repr e), false)
  in
  let lent, fresh = Workspace.counts lease in
  let v =
    {
      v_error = error;
      v_crashed = crashed;
      v_result = Option.map j.j_size res;
      v_sent = st.c_sent;
      v_recvd = st.c_recvd;
      v_arena = st.c_arena_sent;
      v_minflt = minor_faults () - f0;
      v_cpu = cpu_seconds () -. c0;
      v_lent = lent;
      v_fresh = fresh;
    }
  in
  (* rank 0's result is always wanted; any other rank's only when no
     lower rank settled the run, which the parent answers in one byte *)
  let wanted () =
    let b = Bytes.create 1 in
    read_all ctl b 0 1 && Bytes.get b 0 = '\001'
  in
  match
    write_sized ctl (Marshal.to_bytes v []);
    Option.iter (fun r -> if rank = 0 || wanted () then j.j_write file ctl r) res
  with
  | () when v.v_error = None && not v.v_crashed ->
      Workspace.release lease;
      true
  | () | (exception _) -> false

(* --------------------------------------------------------------- the pool *)

type pool = {
  owner : int;  (* the process that forked it: its ranks inherit this record *)
  pids : int array;  (* 0 once reaped *)
  ctls : Unix.file_descr array;  (* the parent's end of each rank's control socket *)
  file : Unix.file_descr;  (* the pool's file, which only its ranks map *)
  mutable runs : int;  (* started so far *)
  mutable retired : bool;
}

let pool : pool option ref = ref None

(* In a rank, its own sockets and pool file: a pool it forks must not
   inherit them. *)
let rank_fds : Unix.file_descr list ref = ref []

(* Held for a whole run: the pool serves one run at a time. *)
let pool_lock = ref (Mutex.create ())

let rec reap pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (EINTR, _, _) -> reap pid
  | exception Unix.Unix_error (ECHILD, _, _) -> ()

(* Every rank still running: a rank that died between runs is reaped
   here, and its pool cannot serve. *)
let alive p =
  let all = ref true in
  Array.iteri
    (fun i pid ->
      match if pid > 0 then Unix.waitpid [ WNOHANG ] pid else (pid, WEXITED 0) with
      | 0, _ -> ()
      | _ | (exception Unix.Unix_error _) ->
          p.pids.(i) <- 0;
          all := false)
    p.pids;
  !all

(* Close the control sockets, so each idle rank reads EOF and exits
   (with [~kill], SIGKILL them too: a rank may still be running), close
   the pool's file, and reap every rank.  Once only: a descriptor closed
   twice could be another one by then. *)
let retire ?(kill = false) p =
  (match !pool with Some q when q == p -> pool := None | _ -> ());
  if not p.retired then begin
    p.retired <- true;
    Array.iter close_noerr p.ctls;
    close_noerr p.file;
    Array.iteri
      (fun i pid ->
        if pid > 0 then begin
          if kill then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap pid;
          p.pids.(i) <- 0
        end)
      p.pids
  end

let shutdown () =
  match !pool with Some p when p.owner = Unix.getpid () -> retire p | _ -> pool := None

let () = at_exit shutdown

let int_of_fd : Unix.file_descr -> int = Obj.magic
let fd_of_int : int -> Unix.file_descr = Obj.magic

(* Close every descriptor this process inherited except stdio and
   [keep]: a rank holds its own sockets and pool file and nothing
   else, so EOF on a socket means what it says, and no file, pipe or
   socket of the parent's stays open in a process that outlives the run
   which opened it. *)
let close_inherited ~keep =
  let keep = List.map int_of_fd keep in
  match Sys.readdir "/proc/self/fd" with
  | names ->
      Array.iter
        (fun name ->
          match int_of_string_opt name with
          | Some n when n > 2 && not (List.mem n keep) -> close_noerr (fd_of_int n)
          | _ -> ())
        names
  | exception Sys_error _ -> ()

(* The highest descriptor number a rank's sockets move to. *)
let fd_top = 1023

(* Move [fd] to number [n], where nothing is open: [fd] itself when that
   cannot be done (a descriptor limit under [fd_top], say). *)
let move_fd fd n =
  match Unix.dup2 ~cloexec:true fd (fd_of_int n) with
  | () ->
      close_noerr fd;
      fd_of_int n
  | exception Unix.Unix_error _ -> fd

(* A rank's descriptors, control socket first and pool file last,
   moved to [fd_top] and down: once the parent has closed its ends, its
   next [pipe] or [openfile] reuses their old numbers, and a program that
   captured such a descriptor must find nothing open under it here
   ([EBADF]), not one of the fabric's.  Left where they are if one of
   them already sits in that range. *)
let lift_sockets ~ctl ~links ~file =
  let held = (ctl :: List.filter_map Fun.id (Array.to_list links)) @ [ file ] in
  if List.exists (fun fd -> int_of_fd fd > fd_top - List.length held) held then (ctl, links, file)
  else begin
    let next = ref fd_top in
    let lift fd =
      let fd = move_fd fd !next in
      decr next;
      fd
    in
    let ctl = lift ctl in
    let links = Array.map (Option.map lift) links in
    (ctl, links, lift file)
  end

(* A pool rank's life: read a job, serve it, until the control socket
   reaches EOF (the pool is retired or the parent is gone) or a run
   leaves its sockets unusable.  [drop] holds every descriptor of the
   parent's that this rank must not keep, in case there is no
   /proc/self/fd to find them by. *)
let rank_main ~rank ~file ~ctl ~links ~drop =
  (* a peer may die mid-write; we want EPIPE (handled), not a signal *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* the parent's pool and its lock are not this process's: a run
     started here forks a pool of its own *)
  pool := None;
  pool_lock := Mutex.create ();
  List.iter close_noerr drop;
  close_inherited ~keep:(file :: ctl :: List.filter_map Fun.id (Array.to_list links));
  let ctl, links, file = lift_sockets ~ctl ~links ~file in
  rank_fds := file :: ctl :: List.filter_map Fun.id (Array.to_list links);
  Array.iter (Option.iter Unix.set_nonblock) links;
  let links =
    Array.mapi
      (fun q -> Option.map (fun fd -> (fd, Wire.create ~chunk:Wire.chunk ~self:rank ~peer:q)))
      links
  in
  let file = map_pool_file file in
  let rec loop () =
    match read_sized ctl with
    | Some b when Bytes.length b >= 16 ->
        let t0 = Int64.float_of_bits (Bytes.get_int64_le b 0) in
        let run = Int64.to_int (Bytes.get_int64_le b 8) in
        let job : job = Marshal.from_bytes b 16 in
        if serve ~rank ~file ~ctl ~links ~t0 ~run job then loop ()
    | _ -> ()
  in
  (try loop () with _ -> ());
  shutdown ();
  Unix._exit 0

(* Fork [size] ranks wired by a full mesh of socketpairs, each with its
   own control socket, all sharing one pool file.  [inherited] are
   descriptors of an older pool the new ranks must not keep (and so are
   this process's own, when it is a rank).  Raises [Fork_after_domain]
   once this process has had a second domain, leaving nothing behind. *)
let fork_pool ~size ~inherited =
  (* ranks inherit the stdio buffers; flush now so nothing replays *)
  flush stdout;
  flush stderr;
  let file = open_pool_file () in
  let pair () = Unix.socketpair ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  let mesh = Array.init size (fun i -> Array.init size (fun j -> if i < j then Some (pair ()) else None)) in
  let ctl = Array.init size (fun _ -> pair ()) in
  (* (a, b) = (rank i's end, rank j's end), i < j *)
  let links r =
    Array.init size (fun q ->
        if q = r then None
        else if r < q then Option.map fst mesh.(r).(q)
        else Option.map snd mesh.(q).(r))
  in
  let every_fd () =
    List.concat_map
      (fun row -> List.concat_map (function Some (a, b) -> [ a; b ] | None -> []) (Array.to_list row))
      (Array.to_list mesh)
    @ List.concat_map (fun (a, b) -> [ a; b ]) (Array.to_list ctl)
  in
  let pids = Array.make size 0 in
  (try
     for r = 0 to size - 1 do
       match Unix.fork () with
       | 0 ->
           let mine = snd ctl.(r) :: List.filter_map Fun.id (Array.to_list (links r)) in
           (try
              rank_main ~rank:r ~file ~ctl:(snd ctl.(r)) ~links:(links r)
                ~drop:(List.filter (fun fd -> not (List.memq fd mine)) (every_fd ()) @ inherited @ !rank_fds)
            with _ -> ());
           Unix._exit 127
       | pid -> pids.(r) <- pid
       (* OCaml 5 refuses to fork once a second domain has ever existed *)
       | exception Failure _ -> raise Fork_after_domain
     done
   with e ->
     (* leave nothing behind: no fd, no half-wired rank *)
     List.iter close_noerr (file :: every_fd ());
     Array.iter
       (fun pid ->
         if pid > 0 then begin
           (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
           reap pid
         end)
       pids;
     raise e);
  (* every socket end now lives in exactly one rank, bar the parent's
     control ends *)
  Array.iter
    (Array.iter (function
      | Some (a, b) ->
          close_noerr a;
          close_noerr b
      | None -> ()))
    mesh;
  Array.iter (fun (_, rank_end) -> close_noerr rank_end) ctl;
  { owner = Unix.getpid (); pids; ctls = Array.map fst ctl; file; runs = 0; retired = false }

(* A live pool of at least [procs] ranks, and how many processes it took
   to get one.  A larger one is forked before the old one is retired, so
   a refused fork leaves the old pool serving. *)
let ensure ~procs =
  match !pool with
  | Some p when p.owner = Unix.getpid () && Array.length p.pids >= procs && alive p -> (p, 0)
  | old ->
      let old = match old with Some p when p.owner = Unix.getpid () -> Some p | _ -> None in
      let size = match old with Some p -> max procs (Array.length p.pids) | None -> procs in
      let p =
        fork_pool ~size ~inherited:(match old with Some o -> o.file :: Array.to_list o.ctls | None -> [])
      in
      Option.iter (fun o -> retire o) old;
      pool := Some p;
      (p, size)

let init ~procs =
  Engine.check_procs "Procs.init" procs;
  Mutex.protect !pool_lock (fun () -> ignore (ensure ~procs))

(* --------------------------------------------------------------------- runs *)

(* Writes to a rank that has died must come back as EPIPE, not kill the
   caller: SIGPIPE is ignored for the length of a run. *)
let without_sigpipe f =
  let old = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe old) f

(* A write to a rank that may have died: its death shows when its
   verdict is read. *)
let send_to_rank fd f = try f fd with Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> ()

(* [head] and then [image] to every control socket in [fds], through one
   [select] loop: each rank's copy advances as its socket takes it, so a
   large image reaches every rank together instead of one after another.
   A rank that has died takes no more. *)
let ship fds head image =
  let hl = Bytes.length head in
  let total = hl + Bytes.length image in
  let sent = Array.make (Array.length fds) 0 in
  let write_some r =
    let b, off = if sent.(r) < hl then (head, sent.(r)) else (image, sent.(r) - hl) in
    match Unix.write fds.(r) b off (Bytes.length b - off) with
    | n -> sent.(r) <- sent.(r) + n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> sent.(r) <- total
  in
  Array.iter Unix.set_nonblock fds;
  Fun.protect ~finally:(fun () -> Array.iter Unix.clear_nonblock fds) @@ fun () ->
  let rec loop ready =
    List.iter write_some ready;
    match List.filter (fun r -> sent.(r) < total) (List.init (Array.length fds) Fun.id) with
    | [] -> ()
    | waiting ->
        let ws =
          match Unix.select [] (List.map (fun r -> fds.(r)) waiting) [] (-1.0) with
          | _, ws, _ -> ws
          | exception Unix.Unix_error (EINTR, _, _) -> []
        in
        loop (List.filter (fun r -> List.memq fds.(r) ws) waiting)
  in
  loop (List.init (Array.length fds) Fun.id)

(* Run [program] on ranks [0, procs) of the pool: stage rank 0's input,
   ship the job, then read every verdict, and the lowest producing
   rank's result in [form] as it arrives, while the other ranks are
   still reporting.  Only that rank's slot of the returned array is
   filled.  A run in which a rank failed, fail-stopped or died retires
   the pool before this returns or raises.  [runner] names the public
   runner in errors. *)
let run_core (type k e) ~runner ?topology ~procs ~lend
    ?(input : ((k, e) Bigarray.kind * k array) option) (program : Engine.t -> 'p option)
    (form : ('p, 'r) result_form) : 'r option array * stats =
  Engine.check_procs ("Procs." ^ runner) procs;
  Option.iter (fun t -> Topology.validate t ~procs) topology;
  let job =
    Job
      {
        j_procs = procs;
        j_lend = lend;
        j_input = Option.map (fun (kind, a) -> (kind, Array.length a)) input;
        j_program = program;
        j_size = form.size;
        j_write = form.write;
      }
  in
  let image = marshal [ Marshal.Closures ] job (fun () -> Printf.sprintf "Procs.%s: the program" runner) in
  Mutex.protect !pool_lock @@ fun () ->
  let p, forked = ensure ~procs in
  without_sigpipe @@ fun () ->
  let t0 = Unix.gettimeofday () in
  p.runs <- p.runs + 1;
  (* the image behind its length, the run's epoch and its number; the
     image itself is written as it stands, not copied behind them *)
  let head = Bytes.create 24 in
  Bytes.set_int64_le head 0 (Int64.of_int (16 + Bytes.length image));
  Bytes.set_int64_le head 8 (Int64.bits_of_float t0);
  Bytes.set_int64_le head 16 (Int64.of_int p.runs);
  let collect () =
    Option.iter (fun (kind, a) -> stage_input p.file kind a) input;
    ship (Array.sub p.ctls 0 procs) head image;
    let crashed = ref [] in
    let errors = Array.make procs None in
    let results = Array.make procs None in
    (* once a rank has failed or announced a result, later results are
       not read; [cut] is a rank that died before its result had arrived
       whole *)
    let settled = ref false and cut = ref None and broken = ref false in
    let verdicts = ref [] and result_faults = ref 0 in
    let lost r =
      crashed := r :: !crashed;
      broken := true
    in
    for r = 0 to procs - 1 do
      let fd = p.ctls.(r) in
      match read_sized fd with
      | None -> (* the rank died before reporting (exit, signal): a real crash *) lost r
      | Some b -> (
          let v : verdict = Marshal.from_bytes b 0 in
          verdicts := v :: !verdicts;
          if v.v_crashed then lost r
          else if Option.is_some v.v_error then begin
            errors.(r) <- v.v_error;
            settled := true;
            broken := true
          end
          else
            match v.v_result with
            | None -> ()
            | Some size ->
                let wanted = not !settled in
                if r > 0 then
                  send_to_rank fd (fun fd ->
                      write_all fd (Bytes.make 1 (if wanted then '\001' else '\000')) 0 1);
                if wanted then begin
                  settled := true;
                  match form.read ~ctl:fd ~file:p.file size with
                  | Some (x, faults) ->
                      results.(r) <- Some x;
                      result_faults := faults
                  | None ->
                      cut := Some r;
                      lost r
                end)
    done;
    let wall = Unix.gettimeofday () -. t0 in
    if !broken then retire p;
    let sum f = List.fold_left (fun n v -> n + f v) 0 !verdicts in
    ( errors,
      results,
      !cut,
      {
        wall;
        total_msgs = sum (fun v -> v.v_sent);
        total_recvs = sum (fun v -> v.v_recvd);
        arena_msgs = sum (fun v -> v.v_arena);
        procs_used = procs;
        forked;
        crashed = List.rev !crashed;
        rank_minflt = sum (fun v -> v.v_minflt) + !result_faults;
        rank_cpu = List.fold_left (fun c v -> c +. v.v_cpu) 0.0 !verdicts;
        rank_lent = sum (fun v -> v.v_lent);
        rank_fresh = sum (fun v -> v.v_fresh);
        job_bytes = Bytes.length image;
      } )
  in
  let errors, results, cut, stats =
    (* a failure here (not a rank's) leaves the ranks mid-run *)
    try collect ()
    with e ->
      retire ~kill:true p;
      raise e
  in
  (* The lowest rank's error is raised, except that a rank which saw a
     peer die without a goodbye reports [E_crashed peer]: when that peer
     left an error verdict of its own, its death was that error, so
     follow the chain to the root cause.  [procs] hops bound the walk. *)
  let rec root_cause hops (r, e) =
    match e with
    | E_crashed q when hops < procs && q >= 0 && q < procs -> (
        match errors.(q) with Some e' -> root_cause (hops + 1) (q, e') | None -> (r, e))
    | _ -> (r, e)
  in
  (match Array.find_mapi (fun r e -> Option.map (fun e -> (r, e)) e) errors with
  | Some first ->
      let r, e = root_cause 0 first in
      reraise_child r e
  | None -> ());
  (* a result is whole or the run fails: never a truncated value *)
  Option.iter (fun r -> raise (Fault.Crashed r)) cut;
  (results, stats)

let run_collect ?topology ~procs (program : Engine.t -> 'a option) : 'a * stats =
  let results, stats =
    run_core ~runner:"run_collect" ?topology ~procs ~lend:false
      (fun eng ->
        Option.map (fun v -> marshal [] v (fun () -> "Procs.run_collect: result")) (program eng))
      marshalled
  in
  (Engine.lowest_rank "Procs.run_collect" results, stats)

let run_flat ~procs ~kind ?input
    (program : Engine.t -> ('k, 'e) Engine.slice array option) : 'k array * stats =
  Engine.check_kind "Procs.run_flat" kind;
  let results, stats =
    run_core ~runner:"run_flat" ~procs ~lend:true
      ?input:(Option.map (fun a -> (kind, a)) input)
      (fun eng -> Option.map (Engine.check_parts "Procs.run_flat" kind) (program eng))
      (flat kind)
  in
  (Engine.lowest_rank "Procs.run_flat" results, stats)
