(* Multi-process execution engine: ranks are OS processes forked at run
   time, wired pairwise by Unix-domain socketpairs, with a shared-memory
   arena beside the sockets for bulk slices.

   Frame protocol (all integers little-endian):

     +------+----------------+----------------+----------------------+
     | kind | tag  (int64)   | len  (int64)   | payload              |
     | 1 B  | 8 B            | 8 B            | see below            |
     +------+----------------+----------------+----------------------+

     kind 0  marshal       len = payload bytes; payload = [Marshal] image
     kind 1  goodbye       len = 0; clean-finish marker, no payload
     kind 2  arena floats  len = element count; payload = two int64s: the
                           block's arena offset and its span (elements)
     kind 3  arena ints    as kind 2, int elements
     kind 4  credit        tag = 0; len = elements of the reader's own ring
                           toward the writer that are free again; no payload

   The source rank is implicit (one socket per peer), so a frame is
   exactly one message and the per-(src,tag) FIFO contract falls out of
   TCP-like stream ordering: same-channel messages share a socket and a
   parse order — arena frames included, since only their payload lives
   elsewhere.  A slice that does not take the arena is a [Marshal] frame
   like any boxed value ([Marshal] keeps a Bigarray's bits exactly), so
   either way one bulk send stays one frame, the coalescing invariant
   the flat tier builds on.

   Each socket frame is copied once per hop.  Writing: a payload of up to
   one chunk (64 KiB) goes out in a single write together with its
   header; a larger one is written after its header as it stands, never
   copied into an assembled frame.  Reading: one chunk-sized read drains
   as many small frames as have arrived into the peer's stream tail, and
   they are parsed out of it.  Once a header announces a payload the tail
   does not hold in full, the payload is allocated at its final size,
   takes the buffered prefix, and the rest is read straight into it; it
   is queued as it stands.  The stream tail therefore never grows past a
   header plus one chunk.

   The arena.  A process maps one shared file (under /dev/shm, unlinked
   as soon as it is open, so no name outlives the mapping) before its
   first fork and keeps it for its lifetime; every run it starts carves
   it into one ring per directed channel, and its children inherit the
   mapping.  A slice of at least one chunk is blitted into the sender's
   ring toward its destination and announced by an arena frame on the
   socket; the receiver copies it out into a fresh Bigarray as soon as
   it parses that frame and owes the sender a credit for the span.
   Credits are written only between whole frames: never while a frame to
   that peer is part-written, and never blocking — what the socket does
   not take at once stays owed, and rides ahead of the next frame.  A
   slice that finds no room in its ring takes the socket like any small
   one, so nothing ever waits on arena space, and boxed payloads always
   take the socket.  A process that cannot create the file runs on
   sockets alone.

   A child reports to the parent over its own socket: its verdict record
   (counters, fail-stop flag, error, whether a result follows) as a
   [Marshal] image behind an int64 length, then its result in the form of
   the runner that started the run — [run_collect]'s [Marshal] image, or
   [run_flat]'s raw words streamed a chunk at a time.  The parent reads
   only the lowest producing rank's result; a child that dies before its
   result has arrived whole is a crash.

   A send returns once its whole frame is in the kernel; no frame is
   ever owed after that.  No send waits for a matching receive: a frame
   that does not fit in the socket buffer is written as the buffer
   drains, and while it waits the sender keeps reading every peer's
   inbound stream through the same [select] pump that receives use — so
   two ranks sending bulk frames to each other both progress.  A send
   can therefore wait only until its destination next enters any engine
   call, finishes, or dies.

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
   cross-process [Obs] aggregation (children count sends/receives and
   ship the totals home in their verdict). *)

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
  crashed : int list;
}

(* ------------------------------------------------------------------ frames *)

let header_len = 17
let k_marshal = 0
let k_goodbye = 1
let k_arena_floats = 2
let k_arena_ints = 3
let k_credit = 4

(* Payload bytes that follow a header of [kind] announcing [len]. *)
let body_bytes kind len =
  if kind = k_marshal then len
  else if kind = k_arena_floats || kind = k_arena_ints then 16
  else 0

(* One read or write of the byte stream moves at most this much; a frame
   whose payload is larger skips the per-peer stream buffer both ways,
   and a slice this large goes through the arena when its ring has room. *)
let chunk = 65536

let header kind tag len extra =
  let b = Bytes.create (header_len + extra) in
  Bytes.set b 0 (Char.chr kind);
  Bytes.set_int64_le b 1 (Int64.of_int tag);
  Bytes.set_int64_le b 9 (Int64.of_int len);
  b

(* The frame header announcing [len] for [payload], followed by
   [payload] itself only when it fits in one chunk: a larger payload is
   written after it as is. *)
let frame_head kind tag len payload =
  let n = Bytes.length payload in
  let inline = if n <= chunk then n else 0 in
  let b = header kind tag len inline in
  Bytes.blit payload 0 b header_len inline;
  b

(* ------------------------------------------------------------------- arena *)

(* One shared mapping, seen as float64 and as int (the file mapped
   twice), so a slice of either kind is one blit in and one blit out. *)
type arena = {
  a_pid : int;  (* the process that mapped it: a forked rank maps its own *)
  a_floats : (float, Bigarray.float64_elt) Engine.slice;
  a_ints : (int, Bigarray.int_elt) Engine.slice;
  mutable a_busy : bool;  (* a run of this process is using it *)
}

let arena_elems = 1 lsl 22 (* 32 MiB *)
let arena_dir = "/dev/shm"
let arena_prefix = "scl-arena-"

(* This process's arena, mapped at its first run of two or more ranks;
   a process that cannot create the file runs on sockets and tries again
   at its next run. *)
let arena : arena option ref = ref None

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

let map_arena () =
  let pid = Unix.getpid () in
  let path = Printf.sprintf "%s/%s%d" arena_dir arena_prefix pid in
  match Unix.openfile path [ O_RDWR; O_CREAT; O_EXCL; O_CLOEXEC ] 0o600 with
  | exception Unix.Unix_error _ -> None
  | fd ->
      (* unlinked before anything else can fail: no name outlives this call *)
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let view kind =
        Bigarray.array1_of_genarray (Unix.map_file fd kind Bigarray.c_layout true [| arena_elems |])
      in
      Fun.protect
        ~finally:(fun () -> close_noerr fd)
        (fun () ->
          try
            Some { a_pid = pid; a_floats = view Bigarray.float64; a_ints = view Bigarray.int; a_busy = false }
          with Unix.Unix_error _ | Failure _ -> None)

(* The arena a run of [procs] ranks may use, marked busy; [None] when it
   would not pay (one rank) or cannot be had (no file, or another run of
   this process holds it).  A forked rank finds its parent's arena here
   and maps its own: its siblings are using that one. *)
let acquire_arena ~procs =
  if procs < 2 then None
  else begin
    (match !arena with
    | Some a when a.a_pid = Unix.getpid () -> ()
    | _ -> arena := map_arena ());
    match !arena with
    | Some a when not a.a_busy ->
        a.a_busy <- true;
        Some a
    | _ -> None
  end

let release_arena = Option.iter (fun a -> a.a_busy <- false)

(* The sender's ring toward one destination: [r_head] and [r_tail] count
   elements ever reserved and ever credited back, so [r_head - r_tail] is
   in flight. *)
type ring = { r_base : int; r_cap : int; mutable r_head : int; mutable r_tail : int }

(* Rank [src]'s ring toward [dst] in a run of [procs]: the arena in
   [procs * (procs - 1)] equal parts, none when a part would be smaller
   than a chunk. *)
let ring_of ~procs ~src ~dst =
  let cap = arena_elems / (procs * (procs - 1)) in
  if 8 * cap < chunk then None
  else
    let slot = (src * (procs - 1)) + if dst < src then dst else dst - 1 in
    Some { r_base = slot * cap; r_cap = cap; r_head = 0; r_tail = 0 }

(* Room for [n] contiguous elements: [Some (offset, span)], or [None].  A
   block that would straddle the ring's end starts over at its front, and
   the skipped tail is charged to it: its span, returned by its credit. *)
let reserve r n =
  let pos = r.r_head mod r.r_cap in
  let skip = if pos + n > r.r_cap then r.r_cap - pos else 0 in
  if r.r_head + skip + n - r.r_tail > r.r_cap then None
  else begin
    r.r_head <- r.r_head + skip + n;
    Some (r.r_base + (if skip > 0 then 0 else pos), skip + n)
  end

let copy_out view off n =
  let a = Bigarray.Array1.create (Bigarray.Array1.kind view) Bigarray.c_layout n in
  Bigarray.Array1.blit (Bigarray.Array1.sub view off n) a;
  a

(* -------------------------------------------------------------- child state *)

(* A parsed, not-yet-received message.  One queue in arrival order across
   all peers: [recv_any] takes the globally oldest match, directed [recv]
   the oldest on its channel — FIFO per (src, tag) either way. *)
type body =
  | Wire of bytes  (* a [Marshal] image, decoded on receipt *)
  | Copied of Obj.t  (* an arena slice, copied out when its frame was parsed *)

type packet = { k_src : int; k_tag : int; k_body : body }

(* A frame whose header is parsed but whose payload, allocated at its
   final size, is still arriving. *)
type partial = { f_kind : int; f_tag : int; f_len : int; f_payload : bytes }

type peer = {
  p_rank : int;
  p_fd : Unix.file_descr;
  mutable p_eof : bool;  (* read side saw EOF (or a hard reset) *)
  mutable p_fin : bool;  (* goodbye frame parsed: the peer finished cleanly *)
  mutable p_wdead : bool;  (* write side dead; outbound traffic is dropped *)
  mutable p_rbuf : Bytes.t;  (* inbound stream tail not yet parsed *)
  mutable p_rlen : int;
  mutable p_body : partial option;
  mutable p_got : int;  (* payload bytes of [p_body] read so far *)
  p_ring : ring option;  (* our ring toward this peer *)
  mutable p_writing : bool;  (* a frame to this peer is part-written *)
  mutable p_credit : int;  (* elements of the peer's ring we have freed, not yet announced *)
  mutable p_ctl : Bytes.t;  (* a credit frame being written *)
  mutable p_ctl_off : int;  (* its bytes already written *)
}

type cstate = {
  c_rank : int;
  c_procs : int;
  c_t0 : float;  (* shared epoch, captured in the parent before forking *)
  c_arena : arena option;
  peers : peer option array;  (* index = rank; [None] at [c_rank] *)
  pending : packet Queue.t;
  mutable c_sent : int;
  mutable c_recvd : int;
  mutable c_arena_sent : int;
  scratch : Bytes.t;  (* read chunk *)
}

let now st = Unix.gettimeofday () -. st.c_t0

(* ------------------------------------------------------------------ credits *)

(* Turn owed credit into a credit frame, unless one is still part-written:
   a credit frame, once started, is finished before any other byte goes
   to that peer. *)
let take_credit peer =
  if peer.p_ctl_off = Bytes.length peer.p_ctl && peer.p_credit > 0 then begin
    peer.p_ctl <- header k_credit 0 peer.p_credit 0;
    peer.p_ctl_off <- 0;
    peer.p_credit <- 0
  end

(* Write owed credit without blocking, and only between whole frames. *)
let flush_credit peer =
  if not (peer.p_writing || peer.p_wdead) then begin
    take_credit peer;
    let continue = ref true in
    while !continue && peer.p_ctl_off < Bytes.length peer.p_ctl do
      match
        Unix.write peer.p_fd peer.p_ctl peer.p_ctl_off (Bytes.length peer.p_ctl - peer.p_ctl_off)
      with
      | n -> peer.p_ctl_off <- peer.p_ctl_off + n
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> continue := false
      | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) ->
          peer.p_wdead <- true;
          continue := false
      | exception Unix.Unix_error (EINTR, _, _) -> ()
    done
  end

(* ------------------------------------------------------- stream maintenance *)

(* A whole frame from [peer]: queue its message, or apply a control frame. *)
let deliver st peer ~kind ~tag ~len payload =
  if kind = k_goodbye then peer.p_fin <- true
  else if kind = k_credit then Option.iter (fun r -> r.r_tail <- r.r_tail + len) peer.p_ring
  else if kind = k_arena_floats || kind = k_arena_ints then begin
    let a = Option.get st.c_arena in
    let off = Int64.to_int (Bytes.get_int64_le payload 0) in
    let v =
      if kind = k_arena_floats then Obj.repr (copy_out a.a_floats off len)
      else Obj.repr (copy_out a.a_ints off len)
    in
    peer.p_credit <- peer.p_credit + Int64.to_int (Bytes.get_int64_le payload 8);
    Queue.add { k_src = peer.p_rank; k_tag = tag; k_body = Copied v } st.pending
  end
  else Queue.add { k_src = peer.p_rank; k_tag = tag; k_body = Wire payload } st.pending

(* Parse every complete frame out of the peer's stream tail.  A frame
   whose payload the tail does not hold in full becomes [p_body], taking
   the whole rest of the tail, so what is left is shorter than a header. *)
let parse_frames st peer =
  let pos = ref 0 in
  (try
     while peer.p_rlen - !pos >= header_len do
       let kind = Char.code (Bytes.get peer.p_rbuf !pos) in
       let tag = Int64.to_int (Bytes.get_int64_le peer.p_rbuf (!pos + 1)) in
       let len = Int64.to_int (Bytes.get_int64_le peer.p_rbuf (!pos + 9)) in
       let body = body_bytes kind len in
       let held = min body (peer.p_rlen - !pos - header_len) in
       let payload = Bytes.create body in
       Bytes.blit peer.p_rbuf (!pos + header_len) payload 0 held;
       pos := !pos + header_len + held;
       if held < body then begin
         peer.p_body <- Some { f_kind = kind; f_tag = tag; f_len = len; f_payload = payload };
         peer.p_got <- held;
         raise Exit
       end;
       deliver st peer ~kind ~tag ~len payload
     done
   with Exit -> ());
  if !pos > 0 then begin
    Bytes.blit peer.p_rbuf !pos peer.p_rbuf 0 (peer.p_rlen - !pos);
    peer.p_rlen <- peer.p_rlen - !pos
  end

(* Read until the socket would block: a chunk at a time into the stream
   tail, or straight into the payload of a frame in progress; then pay
   back what the parsed arena frames freed. *)
let read_peer st peer =
  let continue = ref true in
  while !continue && not peer.p_eof do
    let into, off, len =
      match peer.p_body with
      | Some f -> (f.f_payload, peer.p_got, Bytes.length f.f_payload - peer.p_got)
      | None -> (st.scratch, 0, chunk)
    in
    match Unix.read peer.p_fd into off len with
    | 0 -> peer.p_eof <- true
    | n -> (
        match peer.p_body with
        | Some f ->
            peer.p_got <- peer.p_got + n;
            if peer.p_got = Bytes.length f.f_payload then begin
              peer.p_body <- None;
              deliver st peer ~kind:f.f_kind ~tag:f.f_tag ~len:f.f_len f.f_payload
            end
        | None ->
            let need = peer.p_rlen + n in
            if Bytes.length peer.p_rbuf < need then begin
              (* the tail held less than a header before this read *)
              let grown =
                Bytes.create (min (header_len + chunk) (max need (2 * Bytes.length peer.p_rbuf)))
              in
              Bytes.blit peer.p_rbuf 0 grown 0 peer.p_rlen;
              peer.p_rbuf <- grown
            end;
            Bytes.blit st.scratch 0 peer.p_rbuf peer.p_rlen n;
            peer.p_rlen <- need;
            parse_frames st peer)
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> continue := false
    | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> peer.p_eof <- true
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done;
  flush_credit peer

(* One fabric pump: wait (up to [timeout] seconds; negative = forever)
   for any peer to become readable — or, with [~writing], for that one
   socket to take more bytes — then read every readable peer. *)
let step ?writing st ~timeout =
  let rds =
    Array.fold_left
      (fun acc -> function Some p when not p.p_eof -> p.p_fd :: acc | _ -> acc)
      [] st.peers
  in
  let wrs = match writing with Some p -> [ p.p_fd ] | None -> [] in
  if rds = [] && wrs = [] && timeout < 0.0 then
    (* only reachable from a wait the fail-fast checks proved satisfiable,
       so this is a bug guard, not a semantic path *)
    raise (Fault.Deadlock (Printf.sprintf "p%d: nothing left to wait on" st.c_rank));
  match Unix.select rds wrs [] timeout with
  | r, _, _ ->
      Array.iter
        (function Some p when List.memq p.p_fd r -> read_peer st p | _ -> ())
        st.peers
  | exception Unix.Unix_error (EINTR, _, _) -> ()

(* --------------------------------------------------------------- receiving *)

let take_pending st ~src ~tag ~any_tag =
  let n = Queue.length st.pending in
  let found = ref None in
  for _ = 1 to n do
    let pkt = Queue.pop st.pending in
    if
      Option.is_none !found
      && (src < 0 || pkt.k_src = src)
      && (any_tag || pkt.k_tag = tag)
    then found := Some pkt
    else Queue.add pkt st.pending
  done;
  !found

(* With no matching message pending, decide whether this wait is provably
   hopeless.  Only consulted by untimed receives: timed ones wait out
   their deadline and raise [Timeout] whatever happened to the peer —
   the failure-detector contract the farm depends on. *)
let no_sender_exn st ~src ~tag ~any_tag =
  let chan () = if any_tag then "any" else string_of_int tag in
  if src >= 0 then
    match st.peers.(src) with
    | None ->
        Some
          (Fault.Deadlock
             (Printf.sprintf "p%d: recv(src=%d, tag=%s) from self can never be satisfied"
                st.c_rank src (chan ())))
    | Some p when p.p_eof ->
        if p.p_fin then
          Some
            (Fault.Deadlock
               (Printf.sprintf
                  "p%d: recv(src=%d, tag=%s) — rank %d finished cleanly without sending a \
                   matching message"
                  st.c_rank src (chan ()) src))
        else Some (Fault.Crashed src)
    | Some _ -> None
  else begin
    let all_gone = ref true and first_crashed = ref (-1) in
    Array.iter
      (function
        | Some p ->
            if not p.p_eof then all_gone := false
            else if (not p.p_fin) && !first_crashed < 0 then first_crashed := p.p_rank
        | None -> ())
      st.peers;
    if not !all_gone then None
    else if !first_crashed >= 0 then Some (Fault.Crashed !first_crashed)
    else
      Some
        (Fault.Deadlock
           (Printf.sprintf
              "p%d: recv_any(tag=%s) — every other rank finished cleanly without sending a \
               matching message"
              st.c_rank (chan ())))
  end

let recv_packet st ~src ~tag ~any_tag ~deadline : packet =
  let rec loop () =
    match take_pending st ~src ~tag ~any_tag with
    | Some pkt -> pkt
    | None ->
        if deadline = Float.infinity then begin
          (match no_sender_exn st ~src ~tag ~any_tag with Some e -> raise e | None -> ());
          step st ~timeout:(-1.0);
          loop ()
        end
        else begin
          let remaining = deadline -. now st in
          if remaining <= 0.0 then
            raise
              (Engine.timeout ~rank:st.c_rank ~src ~tag:(if any_tag then None else Some tag)
                 ~deadline)
          else begin
            step st ~timeout:remaining;
            loop ()
          end
        end
  in
  loop ()

let obj_of_packet pkt : Obj.t =
  match pkt.k_body with
  | Copied v -> v
  | Wire payload -> (Marshal.from_bytes payload 0 : Obj.t)

(* ------------------------------------------------------------------ sending *)

(* Hand the whole frame to the kernel before returning, owed credit
   first.  While the socket is full, keep reading every inbound stream:
   the destination may itself be blocked sending to us.  A dead peer
   (EPIPE) absorbs the frame — traffic to a crashed rank is lost, the
   fail-stop contract.  A payload larger than one chunk follows its
   header in a second write instead of being copied behind it. *)
let send_frame st peer kind tag len payload =
  let write b off =
    let len = Bytes.length b in
    let off = ref off in
    while (not peer.p_wdead) && !off < len do
      match Unix.write peer.p_fd b !off (len - !off) with
      | n -> off := !off + n
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
          step ~writing:peer st ~timeout:(-1.0)
      | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) -> peer.p_wdead <- true
      | exception Unix.Unix_error (EINTR, _, _) -> ()
    done
  in
  peer.p_writing <- true;
  take_credit peer;
  write peer.p_ctl peer.p_ctl_off;
  peer.p_ctl_off <- Bytes.length peer.p_ctl;
  write (frame_head kind tag len payload) 0;
  if Bytes.length payload > chunk then write payload 0;
  peer.p_writing <- false;
  (* what the frame's own wait freed *)
  flush_credit peer

let peer_of st dest = match st.peers.(dest) with Some p -> p | None -> assert false

let send_obj st ~dest ~tag v =
  Engine.check_dest "Procs.send" ~size:st.c_procs ~self:st.c_rank dest;
  st.c_sent <- st.c_sent + 1;
  let payload =
    try Marshal.to_bytes v []
    with Invalid_argument msg | Failure msg ->
      raise
        (Fault.Unserializable
           (Printf.sprintf "Procs.send: p%d -> p%d tag %d: payload cannot cross a process \
                            boundary (%s)"
              st.c_rank dest tag msg))
  in
  send_frame st (peer_of st dest) k_marshal tag (Bytes.length payload) payload

(* A slice of at least one chunk goes through the arena when its ring
   has room: one blit in, and a frame carrying where; anything else is a
   [Marshal] frame on the socket. *)
let send_slice_to (type k e) st ~dest ~tag (s : (k, e) Engine.slice) =
  Engine.check_slice "Procs.send_slice" s;
  Engine.check_dest "Procs.send_slice" ~size:st.c_procs ~self:st.c_rank dest;
  st.c_sent <- st.c_sent + 1;
  let p = peer_of st dest in
  let n = Bigarray.Array1.dim s in
  match (match p.p_ring with Some r when 8 * n >= chunk -> reserve r n | _ -> None) with
  | Some (off, span) ->
      let a = Option.get st.c_arena in
      let kind =
        match Bigarray.Array1.kind s with
        | Bigarray.Float64 ->
            Bigarray.Array1.blit s (Bigarray.Array1.sub a.a_floats off n);
            k_arena_floats
        | Bigarray.Int ->
            Bigarray.Array1.blit s (Bigarray.Array1.sub a.a_ints off n);
            k_arena_ints
        | _ -> assert false
      in
      let where = Bytes.create 16 in
      Bytes.set_int64_le where 0 (Int64.of_int off);
      Bytes.set_int64_le where 8 (Int64.of_int span);
      st.c_arena_sent <- st.c_arena_sent + 1;
      send_frame st p kind tag n where
  | None ->
      let payload = Marshal.to_bytes s [] in
      send_frame st p k_marshal tag (Bytes.length payload) payload

(* ----------------------------------------------------------------- shutdown *)

(* Clean finish: say goodbye on each socket (every earlier frame is
   already in the kernel), then apply the undelivered-message check —
   not counting traffic from ranks that crashed, which the fail-stop
   model allows to go unconsumed. *)
let finish_clean st =
  Array.iter
    (function Some p -> send_frame st p k_goodbye 0 0 Bytes.empty | None -> ())
    st.peers;
  let crashed_src pkt =
    match st.peers.(pkt.k_src) with Some p -> p.p_eof && not p.p_fin | None -> false
  in
  match List.filter (fun pkt -> not (crashed_src pkt)) (List.of_seq (Queue.to_seq st.pending)) with
  | [] -> ()
  | pkt :: _ as left ->
      Engine.check_undelivered ~rank:st.c_rank ~count:(List.length left) ~src:pkt.k_src
        ~tag:pkt.k_tag

(* Fail-stop: slam the sockets shut so peers see EOF without a goodbye
   — that is what [Fault.Crashed] looks like from the outside. *)
let abrupt_close st =
  Array.iter (function Some p -> close_noerr p.p_fd | None -> ()) st.peers

(* ------------------------------------------------------------------- engine *)

let engine st cost topology : Engine.t =
  let clock () = now st in
  let recv_from op timeout ~src ~tag =
    Engine.check_src op ~size:st.c_procs src;
    let deadline = Engine.deadline op clock timeout in
    let pkt = recv_packet st ~src ~tag ~any_tag:false ~deadline in
    st.c_recvd <- st.c_recvd + 1;
    obj_of_packet pkt
  in
  {
    Engine.rank = st.c_rank;
    size = st.c_procs;
    cost;
    topology;
    send = (fun ~dest ~tag v -> send_obj st ~dest ~tag v);
    recv = (fun ?timeout ~src ~tag () -> Obj.obj (recv_from "Procs.recv" timeout ~src ~tag));
    recv_any =
      (fun ?timeout ?tag () ->
        let deadline = Engine.deadline "Procs.recv_any" clock timeout in
        let tag', any_tag = match tag with None -> (0, true) | Some t -> (t, false) in
        let pkt = recv_packet st ~src:(-1) ~tag:tag' ~any_tag ~deadline in
        st.c_recvd <- st.c_recvd + 1;
        (pkt.k_src, Obj.obj (obj_of_packet pkt)));
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
  }

(* ----------------------------------------------------- child/parent protocol *)

(* Exceptions do not survive [Marshal] (constructor identity is
   per-process), so a child ships this closed representation and the
   parent rebuilds the real exception. *)
type child_error =
  | E_timeout of string
  | E_crashed of int
  | E_unserializable of string
  | E_deadlock of string
  | E_invalid of string
  | E_failure of string
  | E_other of string

(* A child's report.  Its result, if any, follows it on the socket (see
   [result_form]), not inside it. *)
type verdict = {
  v_error : child_error option;
  v_crashed : bool;  (* chaos-style self fail-stop: silent, not an error *)
  v_result : bool;  (* a result follows the record *)
  v_sent : int;
  v_recvd : int;
  v_arena : int;
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

let rec read_all fd b off len =
  if len = 0 then true
  else
    match Unix.read fd b off len with
    | 0 -> false
    | n -> read_all fd b (off + n) (len - n)
    | exception Unix.Unix_error (EINTR, _, _) -> read_all fd b off len

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

(* [None] = the child died before reporting (exit, signal): a real crash. *)
let read_verdict fd : verdict option =
  Option.map (fun b : verdict -> Marshal.from_bytes b 0) (read_sized fd)

(* How a producing child's result ['p] crosses its verdict socket after the
   record: the child [write]s it, the parent [read]s it back as ['r] —
   [None] when the stream ends early, the child having died mid-result. *)
type ('p, 'r) result_form = {
  write : Unix.file_descr -> 'p -> unit;
  read : Unix.file_descr -> 'r option;
}

let no_result : (unit, unit) result_form = { write = (fun _ () -> ()); read = (fun _ -> Some ()) }

(* [run_collect]'s form: the value's [Marshal] image, taken inside the
   rank so that a value which cannot cross is that rank's error. *)
let marshalled : (bytes, 'a) result_form =
  { write = write_sized; read = (fun fd -> Option.map (fun b -> Marshal.from_bytes b 0) (read_sized fd)) }

(* Elements [i, i + m) of a slice as raw little-endian words, written into
   [b] from byte [off].  The kind is matched once, so each loop runs
   unboxed. *)
let encode_run (type k e) (s : (k, e) Engine.slice) ~i ~m b off =
  match Bigarray.Array1.kind s with
  | Bigarray.Float64 ->
      for j = 0 to m - 1 do
        Bytes.set_int64_le b (off + (8 * j))
          (Int64.bits_of_float (Bigarray.Array1.unsafe_get s (i + j)))
      done
  | Bigarray.Int ->
      for j = 0 to m - 1 do
        Bytes.set_int64_le b (off + (8 * j)) (Int64.of_int (Bigarray.Array1.unsafe_get s (i + j)))
      done
  | _ -> assert false (* [run_flat] checks its parts' kind *)

(* [run_flat]'s form: the element count as an int64, then every part's
   elements as raw little-endian words, streamed through one chunk-sized
   buffer on each side.  The parent decodes each chunk straight into the
   result array: neither side builds a second copy of the whole result. *)
let write_flat fd (parts : ('k, 'e) Engine.slice array) =
  let buf = Bytes.create chunk in
  Bytes.set_int64_le buf 0
    (Int64.of_int (Array.fold_left (fun n s -> n + Bigarray.Array1.dim s) 0 parts));
  let fill = ref 8 in
  Array.iter
    (fun s ->
      let n = Bigarray.Array1.dim s in
      let i = ref 0 in
      while !i < n do
        if !fill = chunk then begin
          write_all fd buf 0 chunk;
          fill := 0
        end;
        let m = min (n - !i) ((chunk - !fill) / 8) in
        encode_run s ~i:!i ~m buf !fill;
        i := !i + m;
        fill := !fill + (8 * m)
      done)
    parts;
  write_all fd buf 0 !fill

let read_flat (type k e) (kind : (k, e) Bigarray.kind) fd : k array option =
  let buf = Bytes.create chunk in
  if not (read_all fd buf 0 8) then None
  else begin
    let total = Int64.to_int (Bytes.get_int64_le buf 0) in
    (* read the words chunk by chunk; [decode n pos] stores the [n] just
       read from index [pos] on *)
    let stream (out : k array) decode =
      let rec go pos =
        if pos = total then Some out
        else begin
          let n = min (chunk / 8) (total - pos) in
          if read_all fd buf 0 (8 * n) then begin
            decode n pos;
            go (pos + n)
          end
          else None
        end
      in
      go 0
    in
    match kind with
    | Bigarray.Float64 ->
        let out = Array.create_float total in
        stream out (fun n pos ->
            for j = 0 to n - 1 do
              Array.unsafe_set out (pos + j) (Int64.float_of_bits (Bytes.get_int64_le buf (8 * j)))
            done)
    | Bigarray.Int ->
        let out = Array.make total 0 in
        stream out (fun n pos ->
            for j = 0 to n - 1 do
              Array.unsafe_set out (pos + j) (Int64.to_int (Bytes.get_int64_le buf (8 * j)))
            done)
    | _ -> assert false (* [Engine.check_kind] *)
  end

let flat kind = { write = write_flat; read = read_flat kind }

(* --------------------------------------------------------------------- runs *)

let child_main ~rank ~procs ~cost ~topology ~t0 ~arena ~mesh ~vfd
    (program : int -> Engine.t -> 'p option) (form : ('p, _) result_form) : unit =
  (* a peer may die mid-write; we want EPIPE (handled), not a signal *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Close every inherited fd that is not ours: EOF-based crash detection
     only works if each socket end lives in exactly one process. *)
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j pair ->
          match pair with
          | Some (a, b) ->
              (* (a, b) = (rank i's end, rank j's end), i < j *)
              if i = rank then close_noerr b
              else if j = rank then close_noerr a
              else begin
                close_noerr a;
                close_noerr b
              end
          | None -> ())
        row)
    mesh;
  Array.iteri
    (fun q (parent_end, child_end) ->
      close_noerr parent_end;
      if q <> rank then close_noerr child_end)
    vfd;
  let my_vfd = snd vfd.(rank) in
  let peers =
    Array.init procs (fun q ->
        if q = rank then None
        else begin
          let fd =
            if rank < q then fst (Option.get mesh.(rank).(q))
            else snd (Option.get mesh.(q).(rank))
          in
          Unix.set_nonblock fd;
          Some
            {
              p_rank = q;
              p_fd = fd;
              p_eof = false;
              p_fin = false;
              p_wdead = false;
              p_rbuf = Bytes.create 4096;
              p_rlen = 0;
              p_body = None;
              p_got = 0;
              p_ring = (if Option.is_some arena then ring_of ~procs ~src:rank ~dst:q else None);
              p_writing = false;
              p_credit = 0;
              p_ctl = Bytes.empty;
              p_ctl_off = 0;
            }
        end)
  in
  let st =
    {
      c_rank = rank;
      c_procs = procs;
      c_t0 = t0;
      c_arena = arena;
      peers;
      pending = Queue.create ();
      c_sent = 0;
      c_recvd = 0;
      c_arena_sent = 0;
      scratch = Bytes.create chunk;
    }
  in
  let eng = engine st cost topology in
  let verdict ?(result = false) error crashed =
    {
      v_error = error;
      v_crashed = crashed;
      v_result = result;
      v_sent = st.c_sent;
      v_recvd = st.c_recvd;
      v_arena = st.c_arena_sent;
    }
  in
  let v, res =
    match
      let res = program rank eng in
      finish_clean st;
      res
    with
    | res -> (verdict ~result:(Option.is_some res) None false, res)
    | exception Fault.Crashed r when r = rank ->
        abrupt_close st;
        (verdict None true, None)
    | exception e ->
        abrupt_close st;
        (verdict (Some (err_repr e)) false, None)
  in
  (* a parent that does not want the result closes its end: EPIPE *)
  (try
     write_sized my_vfd (Marshal.to_bytes v []);
     Option.iter (form.write my_vfd) res
   with _ -> ());
  Unix._exit 0

let rec reap pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (EINTR, _, _) -> reap pid
  | exception Unix.Unix_error (ECHILD, _, _) -> ()

(* Fork the ranks and read every verdict, and the lowest producing rank's
   result in [form] as it arrives, while the other children are still
   exiting; every child is reaped before this returns or raises.  Only
   that rank's slot of the returned array is filled.  [runner] names the
   public runner in argument errors. *)
let run_core ~runner ?(cost = Cost_model.ap1000) ?topology ~procs
    (program : int -> Engine.t -> 'p option) (form : ('p, 'r) result_form) : 'r option array * stats
    =
  Engine.check_procs ("Procs." ^ runner) procs;
  let topology = match topology with Some t -> t | None -> Topology.default procs in
  Topology.validate topology ~procs;
  (* children inherit the stdio buffers; flush now so nothing replays *)
  flush stdout;
  flush stderr;
  let arena = acquire_arena ~procs in
  let mesh =
    Array.init procs (fun i ->
        Array.init procs (fun j ->
            if i < j then Some (Unix.socketpair PF_UNIX SOCK_STREAM 0) else None))
  in
  let vfd = Array.init procs (fun _ -> Unix.socketpair PF_UNIX SOCK_STREAM 0) in
  let close_mesh () =
    Array.iter
      (Array.iter (function
        | Some (a, b) ->
            close_noerr a;
            close_noerr b
        | None -> ()))
      mesh
  in
  let t0 = Unix.gettimeofday () in
  let pids = Array.make procs 0 in
  (try
     for r = 0 to procs - 1 do
       match Unix.fork () with
       | 0 ->
           (try child_main ~rank:r ~procs ~cost ~topology ~t0 ~arena ~mesh ~vfd program form
            with _ -> ());
           (* only reached if child_main itself blew up before its verdict *)
           Unix._exit 127
       | pid -> pids.(r) <- pid
       (* OCaml 5 refuses to fork once a second domain has ever existed *)
       | exception Failure _ -> raise Fork_after_domain
     done
   with e ->
     (* leave nothing behind: no fd, no half-wired child *)
     close_mesh ();
     Array.iter
       (fun (a, b) ->
         close_noerr a;
         close_noerr b)
       vfd;
     Array.iter
       (fun pid ->
         if pid > 0 then begin
           (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
           reap pid
         end)
       pids;
     release_arena arena;
     raise e);
  (* every socket end now lives in exactly one child *)
  close_mesh ();
  Array.iter (fun (_, child_end) -> close_noerr child_end) vfd;
  let is_open = Array.make procs true in
  let close_vfd r =
    if is_open.(r) then begin
      is_open.(r) <- false;
      close_noerr (fst vfd.(r))
    end
  in
  let results, (sent, recvd, via_arena, crashed) =
    Fun.protect
      ~finally:(fun () ->
        (* closed before reaping: a child still writing an unread result
           gets EPIPE and exits *)
        for r = 0 to procs - 1 do
          close_vfd r
        done;
        Array.iter reap pids;
        release_arena arena)
      (fun () ->
        let crashed = ref [] in
        let errors = Array.make procs None in
        let results = Array.make procs None in
        (* once a rank has failed or announced a result, later results
           are not read; [cut] is a rank whose result stream ended early *)
        let settled = ref false and cut = ref None in
        let sent = ref 0 and recvd = ref 0 and via_arena = ref 0 in
        for r = 0 to procs - 1 do
          let fd = fst vfd.(r) in
          (match read_verdict fd with
          | None -> crashed := r :: !crashed
          | Some v ->
              sent := !sent + v.v_sent;
              recvd := !recvd + v.v_recvd;
              via_arena := !via_arena + v.v_arena;
              if v.v_crashed then crashed := r :: !crashed
              else if Option.is_some v.v_error then begin
                errors.(r) <- v.v_error;
                settled := true
              end
              else if v.v_result && not !settled then begin
                settled := true;
                match form.read fd with
                | Some x -> results.(r) <- Some x
                | None ->
                    cut := Some r;
                    crashed := r :: !crashed
              end);
          close_vfd r
        done;
        (* The lowest rank's error is raised, except that a rank which saw
           a peer die without a goodbye reports [E_crashed peer]: when that
           peer left an error verdict of its own, its death was that error,
           so follow the chain to the root cause.  [procs] hops bound the
           walk. *)
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
        Option.iter (fun r -> raise (Fault.Crashed r)) !cut;
        (results, (!sent, !recvd, !via_arena, List.rev !crashed)))
  in
  ( results,
    {
      wall = Unix.gettimeofday () -. t0;
      total_msgs = sent;
      total_recvs = recvd;
      arena_msgs = via_arena;
      procs_used = procs;
      crashed;
    } )

let run_each ?cost ?topology ~procs (program : int -> Engine.t -> unit) : stats =
  snd
    (run_core ~runner:"run_each" ?cost ?topology ~procs
       (fun r eng ->
         program r eng;
         None)
       no_result)

let run_collect ?cost ?topology ~procs (program : Engine.t -> 'a option) : 'a * stats =
  let results, stats =
    run_core ~runner:"run_collect" ?cost ?topology ~procs
      (fun _rank eng ->
        Option.map
          (fun v ->
            try Marshal.to_bytes v []
            with Invalid_argument msg | Failure msg ->
              raise
                (Fault.Unserializable
                   (Printf.sprintf "Procs.run_collect: result cannot cross a process boundary (%s)"
                      msg)))
          (program eng))
      marshalled
  in
  (Engine.lowest_rank "Procs.run_collect" results, stats)

let run_flat ?cost ?topology ~procs ~kind (program : Engine.t -> ('k, 'e) Engine.slice array option)
    : 'k array * stats =
  Engine.check_kind "Procs.run_flat" kind;
  let results, stats =
    run_core ~runner:"run_flat" ?cost ?topology ~procs
      (fun _rank eng ->
        Option.map
          (fun parts ->
            (* a slice's static kind is the receiver's annotation, not a
               check; the stream's loops trust the run-time one *)
            Array.iter
              (fun s ->
                if Bigarray.Array1.kind s <> kind then
                  invalid_arg "Procs.run_flat: a part is not of the requested kind")
              parts;
            parts)
          (program eng))
      (flat kind)
  in
  (Engine.lowest_rank "Procs.run_flat" results, stats)
