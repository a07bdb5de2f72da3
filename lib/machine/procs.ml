(* Multi-process execution engine: ranks are OS processes forked at run
   time, wired pairwise by Unix-domain socketpairs.

   Frame protocol (all integers little-endian):

     +------+----------------+----------------+----------------------+
     | kind | tag  (int64)   | len  (int64)   | payload              |
     | 1 B  | 8 B            | 8 B            | see below            |
     +------+----------------+----------------+----------------------+

     kind 0  marshal   len = payload bytes; payload = [Marshal] image
     kind 1  slice     len = float64 count; payload = 8*len raw bytes
     kind 2  goodbye   len = 0; clean-finish marker, no payload

   The source rank is implicit (one socket per peer), so a frame is
   exactly one message and the per-(src,tag) FIFO contract falls out of
   TCP-like stream ordering: same-channel messages share a socket and a
   parse order.  [send_slice] writes the raw float image — no
   marshalling framing — so one bulk send stays one frame, the
   coalescing invariant the flat tier builds on.

   Each bulk frame is copied once per hop.  Writing: a payload of up to
   one chunk (64 KiB) goes out in a single write together with its
   header; a larger one is written after its header as it stands, never
   copied into an assembled frame.  Reading: one chunk-sized read drains
   as many small frames as have arrived into the peer's stream tail, and
   they are parsed out of it.  Once a header announces a payload the tail
   does not hold in full, the payload is allocated at its final size,
   takes the buffered prefix, and the rest is read straight into it; it
   is queued as it stands.  The stream tail therefore never grows past a
   header plus one chunk.

   A child reports to the parent over its own socket: two int64 lengths,
   then its verdict record (counters, fail-stop flag, error) as a
   [Marshal] image, then its result's marshalled bytes raw, not wrapped
   in a second [Marshal].

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
   it), zero-copy (everything crosses the boundary by value), and
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
  procs_used : int;
  crashed : int list;
}

(* ------------------------------------------------------------------ frames *)

let header_len = 17
let k_marshal = 0
let k_slice = 1
let k_goodbye = 2

(* One read or write of the byte stream moves at most this much; a frame
   whose payload is larger skips the per-peer stream buffer both ways. *)
let chunk = 65536

(* The frame header for [payload], followed by [payload] itself only when
   it fits in one chunk: a larger payload is written after it as is. *)
let frame_head kind tag payload =
  let n = Bytes.length payload in
  let inline = if n <= chunk then n else 0 in
  let b = Bytes.create (header_len + inline) in
  Bytes.set b 0 (Char.chr kind);
  Bytes.set_int64_le b 1 (Int64.of_int tag);
  Bytes.set_int64_le b 9 (Int64.of_int (if kind = k_slice then n / 8 else n));
  Bytes.blit payload 0 b header_len inline;
  b

let encode_slice (s : Engine.slice) =
  let len = Bigarray.Array1.dim s in
  let b = Bytes.create (8 * len) in
  for i = 0 to len - 1 do
    Bytes.set_int64_le b (8 * i) (Int64.bits_of_float (Bigarray.Array1.unsafe_get s i))
  done;
  b

let decode_slice payload : Engine.slice =
  let len = Bytes.length payload / 8 in
  let a = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout len in
  for i = 0 to len - 1 do
    Bigarray.Array1.unsafe_set a i (Int64.float_of_bits (Bytes.get_int64_le payload (8 * i)))
  done;
  a

(* -------------------------------------------------------------- child state *)

(* A parsed, not-yet-received message.  One queue in arrival order across
   all peers: [recv_any] takes the globally oldest match, directed [recv]
   the oldest on its channel — FIFO per (src, tag) either way. *)
type packet = { k_src : int; k_tag : int; k_kind : int; k_payload : bytes }

type peer = {
  p_rank : int;
  p_fd : Unix.file_descr;
  mutable p_eof : bool;  (* read side saw EOF (or a hard reset) *)
  mutable p_fin : bool;  (* goodbye frame parsed: the peer finished cleanly *)
  mutable p_wdead : bool;  (* write side dead; outbound traffic is dropped *)
  mutable p_rbuf : Bytes.t;  (* inbound stream tail not yet parsed *)
  mutable p_rlen : int;
  mutable p_body : packet option;
      (* a frame whose header is parsed but whose payload, allocated at
         its final size, is still arriving *)
  mutable p_got : int;  (* payload bytes of [p_body] read so far *)
}

type cstate = {
  c_rank : int;
  c_procs : int;
  c_t0 : float;  (* shared epoch, captured in the parent before forking *)
  peers : peer option array;  (* index = rank; [None] at [c_rank] *)
  pending : packet Queue.t;
  mutable c_sent : int;
  mutable c_recvd : int;
  scratch : Bytes.t;  (* read chunk *)
}

let now st = Unix.gettimeofday () -. st.c_t0

(* ------------------------------------------------------- stream maintenance *)

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
       let body = if kind = k_slice then 8 * len else len in
       let held = min body (peer.p_rlen - !pos - header_len) in
       let payload = Bytes.create body in
       Bytes.blit peer.p_rbuf (!pos + header_len) payload 0 held;
       pos := !pos + header_len + held;
       let pkt = { k_src = peer.p_rank; k_tag = tag; k_kind = kind; k_payload = payload } in
       if held < body then begin
         peer.p_body <- Some pkt;
         peer.p_got <- held;
         raise Exit
       end;
       if kind = k_goodbye then peer.p_fin <- true else Queue.add pkt st.pending
     done
   with Exit -> ());
  if !pos > 0 then begin
    Bytes.blit peer.p_rbuf !pos peer.p_rbuf 0 (peer.p_rlen - !pos);
    peer.p_rlen <- peer.p_rlen - !pos
  end

(* Read until the socket would block: a chunk at a time into the stream
   tail, or straight into the payload of a frame in progress. *)
let read_peer st peer =
  let continue = ref true in
  while !continue && not peer.p_eof do
    let into, off, len =
      match peer.p_body with
      | Some pkt -> (pkt.k_payload, peer.p_got, Bytes.length pkt.k_payload - peer.p_got)
      | None -> (st.scratch, 0, chunk)
    in
    match Unix.read peer.p_fd into off len with
    | 0 -> peer.p_eof <- true
    | n -> (
        match peer.p_body with
        | Some pkt ->
            peer.p_got <- peer.p_got + n;
            if peer.p_got = Bytes.length pkt.k_payload then begin
              Queue.add pkt st.pending;
              peer.p_body <- None
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
  done

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
  if pkt.k_kind = k_slice then Obj.repr (decode_slice pkt.k_payload)
  else (Marshal.from_bytes pkt.k_payload 0 : Obj.t)

(* ------------------------------------------------------------------ sending *)

(* Hand the whole frame to the kernel before returning.  While the
   socket is full, keep reading every inbound stream: the destination
   may itself be blocked sending to us.  A dead peer (EPIPE) absorbs the
   frame — traffic to a crashed rank is lost, the fail-stop contract.
   A payload larger than one chunk follows its header in a second write
   instead of being copied behind it. *)
let send_frame st peer kind tag payload =
  let write b =
    let len = Bytes.length b in
    let off = ref 0 in
    while (not peer.p_wdead) && !off < len do
      match Unix.write peer.p_fd b !off (len - !off) with
      | n -> off := !off + n
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
          step ~writing:peer st ~timeout:(-1.0)
      | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) -> peer.p_wdead <- true
      | exception Unix.Unix_error (EINTR, _, _) -> ()
    done
  in
  write (frame_head kind tag payload);
  if Bytes.length payload > chunk then write payload

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
  match st.peers.(dest) with
  | Some p -> send_frame st p k_marshal tag payload
  | None -> assert false

let send_slice_to st ~dest ~tag s =
  Engine.check_dest "Procs.send_slice" ~size:st.c_procs ~self:st.c_rank dest;
  st.c_sent <- st.c_sent + 1;
  match st.peers.(dest) with
  | Some p -> send_frame st p k_slice tag (encode_slice s)
  | None -> assert false

(* ----------------------------------------------------------------- shutdown *)

(* Clean finish: say goodbye on each socket (every earlier frame is
   already in the kernel), then apply the undelivered-message check —
   not counting traffic from ranks that crashed, which the fail-stop
   model allows to go unconsumed. *)
let finish_clean st =
  Array.iter
    (function Some p -> send_frame st p k_goodbye 0 Bytes.empty | None -> ())
    st.peers;
  let crashed_src pkt =
    match st.peers.(pkt.k_src) with Some p -> p.p_eof && not p.p_fin | None -> false
  in
  match List.filter (fun pkt -> not (crashed_src pkt)) (List.of_seq (Queue.to_seq st.pending)) with
  | [] -> ()
  | pkt :: _ as left ->
      Engine.check_undelivered ~rank:st.c_rank ~count:(List.length left) ~src:pkt.k_src
        ~tag:pkt.k_tag

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

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
    real_time = true;
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

(* A child's report.  Its result, if any, travels after it as raw
   marshalled bytes (see [write_verdict]), not inside it. *)
type verdict = {
  v_error : child_error option;
  v_crashed : bool;  (* chaos-style self fail-stop: silent, not an error *)
  v_sent : int;
  v_recvd : int;
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

(* Verdict socket layout: two little-endian int64 lengths — the verdict
   record's [Marshal] image, then the result's marshalled bytes (-1 when
   the rank produced none) — followed by the record and the result. *)
let write_verdict fd (v : verdict) (res : bytes option) =
  let b = Marshal.to_bytes v [] in
  let hdr = Bytes.create 16 in
  Bytes.set_int64_le hdr 0 (Int64.of_int (Bytes.length b));
  Bytes.set_int64_le hdr 8 (Int64.of_int (match res with Some r -> Bytes.length r | None -> -1));
  write_all fd hdr 0 16;
  write_all fd b 0 (Bytes.length b);
  Option.iter (fun r -> write_all fd r 0 (Bytes.length r)) res

(* [None] = the child died before reporting (exit, signal): a real crash. *)
let read_verdict fd : (verdict * bytes option) option =
  let hdr = Bytes.create 16 in
  if not (read_all fd hdr 0 16) then None
  else begin
    let len = Int64.to_int (Bytes.get_int64_le hdr 0) in
    let res_len = Int64.to_int (Bytes.get_int64_le hdr 8) in
    let b = Bytes.create len in
    let r = Bytes.create (max res_len 0) in
    if read_all fd b 0 len && read_all fd r 0 (Bytes.length r) then
      Some ((Marshal.from_bytes b 0 : verdict), if res_len < 0 then None else Some r)
    else None
  end

(* --------------------------------------------------------------------- runs *)

let child_main ~rank ~procs ~cost ~topology ~t0 ~mesh ~vfd
    (program : int -> Engine.t -> bytes option) : unit =
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
            }
        end)
  in
  let st =
    {
      c_rank = rank;
      c_procs = procs;
      c_t0 = t0;
      peers;
      pending = Queue.create ();
      c_sent = 0;
      c_recvd = 0;
      scratch = Bytes.create chunk;
    }
  in
  let eng = engine st cost topology in
  let verdict error crashed =
    { v_error = error; v_crashed = crashed; v_sent = st.c_sent; v_recvd = st.c_recvd }
  in
  let v, res =
    match
      let res = program rank eng in
      finish_clean st;
      res
    with
    | res -> (verdict None false, res)
    | exception Fault.Crashed r when r = rank ->
        abrupt_close st;
        (verdict None true, None)
    | exception e ->
        abrupt_close st;
        (verdict (Some (err_repr e)) false, None)
  in
  (try write_verdict my_vfd v res with _ -> ());
  Unix._exit 0

let rec reap pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (EINTR, _, _) -> reap pid
  | exception Unix.Unix_error (ECHILD, _, _) -> ()

let run_core ?(cost = Cost_model.ap1000) ?topology ~procs
    (program : int -> Engine.t -> bytes option) : bytes option array * stats =
  Engine.check_procs "Procs.run_each" procs;
  let topology = match topology with Some t -> t | None -> Topology.default procs in
  Topology.validate topology ~procs;
  (* children inherit the stdio buffers; flush now so nothing replays *)
  flush stdout;
  flush stderr;
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
           (try child_main ~rank:r ~procs ~cost ~topology ~t0 ~mesh ~vfd program with _ -> ());
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
     raise e);
  (* every socket end now lives in exactly one child *)
  close_mesh ();
  Array.iter (fun (_, child_end) -> close_noerr child_end) vfd;
  let verdicts =
    Array.map
      (fun (parent_end, _) ->
        let v = read_verdict parent_end in
        close_noerr parent_end;
        v)
      vfd
  in
  Array.iter reap pids;
  let wall = Unix.gettimeofday () -. t0 in
  let crashed = ref [] in
  let errors = Array.make procs None in
  let results = Array.make procs None in
  let sent = ref 0 and recvd = ref 0 in
  Array.iteri
    (fun r v ->
      match v with
      | None -> crashed := r :: !crashed
      | Some (v, res) ->
          sent := !sent + v.v_sent;
          recvd := !recvd + v.v_recvd;
          if v.v_crashed then crashed := r :: !crashed
          else begin
            results.(r) <- res;
            errors.(r) <- v.v_error
          end)
    verdicts;
  (* The lowest rank's error is raised, except that a rank which saw a peer
     die without a goodbye reports [E_crashed peer]: when that peer left an
     error verdict of its own, its death was that error, so follow the
     chain to the root cause.  [procs] hops bound the walk. *)
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
  ( results,
    {
      wall;
      total_msgs = !sent;
      total_recvs = !recvd;
      procs_used = procs;
      crashed = List.rev !crashed;
    } )

let run_each ?cost ?topology ~procs (program : int -> Engine.t -> unit) : stats =
  let _, stats =
    run_core ?cost ?topology ~procs (fun r eng ->
        program r eng;
        None)
  in
  stats

let run_collect (type a) ?cost ?topology ~procs (program : Engine.t -> a option) : a * stats =
  let results, stats =
    run_core ?cost ?topology ~procs (fun _rank eng ->
        match program eng with
        | None -> None
        | Some v -> (
            try Some (Marshal.to_bytes v [])
            with Invalid_argument msg | Failure msg ->
              raise
                (Fault.Unserializable
                   (Printf.sprintf "Procs.run_collect: result cannot cross a process \
                                    boundary (%s)"
                      msg))))
  in
  ((Marshal.from_bytes (Engine.lowest_rank "Procs.run_collect" results) 0 : a), stats)
