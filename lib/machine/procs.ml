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

   Sends never block: frames queue in user space and drain through
   non-blocking writes whenever [select] says the peer can take more
   (every receive, sleep and the final flush pump the queues).  The
   final flush also keeps *reading* — two ranks flushing large tails at
   each other would otherwise deadlock on full socket buffers.

   Crash detection is the point of this engine: a peer that dies (exit,
   signal, [EPIPE]) leaves EOF on its socket *without* the goodbye
   frame, and an untimed receive that provably waits on such a peer
   raises [Fault.Crashed] — a real process death, not a simulated one.
   EOF *with* goodbye means a clean finish; waiting on it is a protocol
   bug and raises [Deadlock].  Receives carrying a timeout never map
   peer death to an exception: they wait out their deadline and raise
   [Fault.Timeout], which is what the farm's failure detector (catching
   only [Timeout]) relies on.

   What is deliberately NOT here: global quiescence detection (a wait
   cycle among live processes hangs — there is no shared view to prove
   it), zero-copy (everything crosses the boundary by value), and
   cross-process [Obs] aggregation (children count sends/receives and
   ship the totals home in their verdict). *)

exception Deadlock of string
exception Child_failure of int * string

let () =
  Printexc.register_printer (function
    | Deadlock msg -> Some (Printf.sprintf "Machine.Procs.Deadlock(%s)" msg)
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

let make_frame kind tag payload =
  let n = Bytes.length payload in
  let b = Bytes.create (header_len + n) in
  Bytes.set b 0 (Char.chr kind);
  Bytes.set_int64_le b 1 (Int64.of_int tag);
  Bytes.set_int64_le b 9 (Int64.of_int (if kind = k_slice then n / 8 else n));
  Bytes.blit payload 0 b header_len n;
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

type peer = {
  p_rank : int;
  p_fd : Unix.file_descr;
  mutable p_eof : bool;  (* read side saw EOF (or a hard reset) *)
  mutable p_fin : bool;  (* goodbye frame parsed: the peer finished cleanly *)
  mutable p_wdead : bool;  (* write side dead; outbound traffic is dropped *)
  p_out : Bytes.t Queue.t;  (* whole frames awaiting the socket *)
  mutable p_off : int;  (* bytes of the queue head already written *)
  mutable p_rbuf : Bytes.t;  (* inbound stream tail not yet parsed *)
  mutable p_rlen : int;
}

(* A parsed, not-yet-received message.  One queue in arrival order across
   all peers: [recv_any] takes the globally oldest match, directed [recv]
   the oldest on its channel — FIFO per (src, tag) either way. *)
type packet = { k_src : int; k_tag : int; k_kind : int; k_payload : bytes }

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

let drop_out peer =
  peer.p_wdead <- true;
  Queue.clear peer.p_out;
  peer.p_off <- 0

(* Drain as much outbound as the socket will take right now. Never
   blocks (non-blocking fd); a dead peer absorbs its queue — traffic to
   a crashed rank is lost, the fail-stop contract. *)
let write_peer peer =
  let continue = ref true in
  while !continue && (not peer.p_wdead) && not (Queue.is_empty peer.p_out) do
    let head = Queue.peek peer.p_out in
    let len = Bytes.length head - peer.p_off in
    match Unix.write peer.p_fd head peer.p_off len with
    | n ->
        if n = len then begin
          ignore (Queue.pop peer.p_out);
          peer.p_off <- 0
        end
        else peer.p_off <- peer.p_off + n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> continue := false
    | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) -> drop_out peer
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done

(* Parse every complete frame out of the peer's stream tail. *)
let parse_frames st peer =
  let pos = ref 0 in
  (try
     while peer.p_rlen - !pos >= header_len do
       let kind = Char.code (Bytes.get peer.p_rbuf !pos) in
       let tag = Int64.to_int (Bytes.get_int64_le peer.p_rbuf (!pos + 1)) in
       let len = Int64.to_int (Bytes.get_int64_le peer.p_rbuf (!pos + 9)) in
       let body = if kind = k_slice then 8 * len else len in
       if peer.p_rlen - !pos - header_len < body then raise Exit;
       if kind = k_goodbye then peer.p_fin <- true
       else
         Queue.add
           {
             k_src = peer.p_rank;
             k_tag = tag;
             k_kind = kind;
             k_payload = Bytes.sub peer.p_rbuf (!pos + header_len) body;
           }
           st.pending;
       pos := !pos + header_len + body
     done
   with Exit -> ());
  if !pos > 0 then begin
    Bytes.blit peer.p_rbuf !pos peer.p_rbuf 0 (peer.p_rlen - !pos);
    peer.p_rlen <- peer.p_rlen - !pos
  end

let read_peer st peer =
  let continue = ref true in
  while !continue && not peer.p_eof do
    match Unix.read peer.p_fd st.scratch 0 (Bytes.length st.scratch) with
    | 0 -> peer.p_eof <- true
    | n ->
        let need = peer.p_rlen + n in
        if Bytes.length peer.p_rbuf < need then begin
          let grown = Bytes.create (max need (2 * Bytes.length peer.p_rbuf)) in
          Bytes.blit peer.p_rbuf 0 grown 0 peer.p_rlen;
          peer.p_rbuf <- grown
        end;
        Bytes.blit st.scratch 0 peer.p_rbuf peer.p_rlen n;
        peer.p_rlen <- peer.p_rlen + n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> continue := false
    | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> peer.p_eof <- true
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done;
  parse_frames st peer

(* One fabric pump: wait (up to [timeout] seconds; negative = forever)
   for any peer to become readable or writable, then service them. *)
let step st ~timeout =
  let rds = ref [] and wrs = ref [] in
  Array.iter
    (function
      | Some p ->
          if not p.p_eof then rds := p.p_fd :: !rds;
          if (not p.p_wdead) && not (Queue.is_empty p.p_out) then wrs := p.p_fd :: !wrs
      | None -> ())
    st.peers;
  if !rds = [] && !wrs = [] && timeout < 0.0 then
    (* only reachable from a wait the fail-fast checks proved satisfiable,
       so this is a bug guard, not a semantic path *)
    raise (Deadlock (Printf.sprintf "p%d: nothing left to wait on" st.c_rank));
  match Unix.select !rds !wrs [] timeout with
  | r, w, _ ->
      Array.iter
        (function
          | Some p ->
              if List.memq p.p_fd w then write_peer p;
              if List.memq p.p_fd r then read_peer st p
          | None -> ())
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

let timeout_exn st ~src ~any_tag ~tag =
  Fault.Timeout
    (Printf.sprintf "p%d: recv(src=%s, tag=%s) deadline elapsed" st.c_rank
       (if src < 0 then "any" else string_of_int src)
       (if any_tag then "any" else string_of_int tag))

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
          (Deadlock
             (Printf.sprintf "p%d: recv(src=%d, tag=%s) from self can never be satisfied"
                st.c_rank src (chan ())))
    | Some p when p.p_eof ->
        if p.p_fin then
          Some
            (Deadlock
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
        (Deadlock
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
          if remaining <= 0.0 then raise (timeout_exn st ~src ~any_tag ~tag)
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

let enqueue peer frame =
  if not peer.p_wdead then begin
    Queue.add frame peer.p_out;
    write_peer peer (* opportunistic drain; common case hits the socket now *)
  end

let check_dest st name dest =
  if dest < 0 || dest >= st.c_procs then
    invalid_arg (Printf.sprintf "Procs.%s: rank %d out of range [0,%d)" name dest st.c_procs);
  if dest = st.c_rank then
    invalid_arg (Printf.sprintf "Procs.%s: self-send is not supported (use a local value)" name)

let send_obj st ~dest ~tag v =
  check_dest st "send" dest;
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
  | Some p -> enqueue p (make_frame k_marshal tag payload)
  | None -> assert false

let send_slice_to st ~dest ~tag s =
  check_dest st "send_slice" dest;
  st.c_sent <- st.c_sent + 1;
  match st.peers.(dest) with
  | Some p -> enqueue p (make_frame k_slice tag (encode_slice s))
  | None -> assert false

(* ----------------------------------------------------------------- shutdown *)

let outbound_busy st =
  Array.exists
    (function Some p -> (not p.p_wdead) && not (Queue.is_empty p.p_out) | None -> false)
    st.peers

let flush_outbound st =
  while outbound_busy st do
    step st ~timeout:(-1.0)
  done

(* Clean finish: push every owed byte out, say goodbye on each socket,
   then apply the undelivered-message check (same contract as the other
   engines — except for traffic from ranks that crashed, which the
   fail-stop model allows to go unconsumed). *)
let finish_clean st =
  flush_outbound st;
  Array.iter
    (function Some p -> enqueue p (make_frame k_goodbye 0 Bytes.empty) | None -> ())
    st.peers;
  flush_outbound st;
  let crashed_src pkt =
    match st.peers.(pkt.k_src) with Some p -> p.p_eof && not p.p_fin | None -> false
  in
  let left = Queue.fold (fun acc pkt -> if crashed_src pkt then acc else pkt :: acc) [] st.pending in
  match List.rev left with
  | [] -> ()
  | pkt :: _ as l ->
      raise
        (Deadlock
           (Printf.sprintf
              "processor %d finished with %d undelivered message(s); first from p%d tag %d"
              st.c_rank (List.length l) pkt.k_src pkt.k_tag))

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Fail-stop: drop owed traffic and slam the sockets shut so peers see
   EOF without a goodbye — that is what [Fault.Crashed] looks like from
   the outside. *)
let abrupt_close st =
  Array.iter
    (function
      | Some p ->
          drop_out p;
          close_noerr p.p_fd
      | None -> ())
    st.peers

(* ------------------------------------------------------------------- engine *)

let deadline_of st name timeout =
  match timeout with
  | None -> Float.infinity
  | Some timeout ->
      if timeout < 0.0 then invalid_arg (Printf.sprintf "Procs.%s: negative timeout" name);
      now st +. timeout

let check_src st name src =
  if src < 0 || src >= st.c_procs then
    invalid_arg (Printf.sprintf "Procs.%s: rank %d out of range [0,%d)" name src st.c_procs)

let engine st cost topology : Engine.t =
  {
    Engine.rank = st.c_rank;
    size = st.c_procs;
    cost;
    topology;
    real_time = true;
    send = (fun ~dest ~tag v -> send_obj st ~dest ~tag v);
    recv =
      (fun ?timeout ~src ~tag () ->
        check_src st "recv" src;
        let deadline = deadline_of st "recv" timeout in
        let pkt = recv_packet st ~src ~tag ~any_tag:false ~deadline in
        st.c_recvd <- st.c_recvd + 1;
        Obj.obj (obj_of_packet pkt));
    recv_any =
      (fun ?timeout ?tag () ->
        let deadline = deadline_of st "recv_any" timeout in
        let tag', any_tag = match tag with None -> (0, true) | Some t -> (t, false) in
        let pkt = recv_packet st ~src:(-1) ~tag:tag' ~any_tag ~deadline in
        st.c_recvd <- st.c_recvd + 1;
        (pkt.k_src, Obj.obj (obj_of_packet pkt)));
    send_slice = (fun ~dest ~tag s -> send_slice_to st ~dest ~tag s);
    recv_slice =
      (fun ?timeout ~src ~tag () ->
        check_src st "recv_slice" src;
        let deadline = deadline_of st "recv_slice" timeout in
        let pkt = recv_packet st ~src ~tag ~any_tag:false ~deadline in
        st.c_recvd <- st.c_recvd + 1;
        (Obj.obj (obj_of_packet pkt) : Engine.slice));
    work = (fun d -> if d < 0.0 then invalid_arg "Procs.work: negative duration");
    sleep =
      (fun d ->
        if d < 0.0 then invalid_arg "Procs.sleep: negative duration";
        (* park on [select], pumping the fabric meanwhile: queued sends
           keep draining and inbound frames keep accumulating, so a
           sleeping rank never backpressures its peers *)
        let until = now st +. d in
        let rec park () =
          let remaining = until -. now st in
          if remaining > 0.0 then begin
            step st ~timeout:remaining;
            park ()
          end
        in
        park ());
    time = (fun () -> now st);
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

type verdict = {
  v_out : (bytes option, child_error) result;  (* Ok: marshalled result, if any *)
  v_crashed : bool;  (* chaos-style self fail-stop: silent, not an error *)
  v_sent : int;
  v_recvd : int;
}

let err_repr = function
  | Fault.Timeout m -> E_timeout m
  | Fault.Crashed r -> E_crashed r
  | Fault.Unserializable m -> E_unserializable m
  | Deadlock m -> E_deadlock m
  | Invalid_argument m -> E_invalid m
  | Failure m -> E_failure m
  | e -> E_other (Printexc.to_string e)

let reraise_child rank = function
  | E_timeout m -> raise (Fault.Timeout m)
  | E_crashed r -> raise (Fault.Crashed r)
  | E_unserializable m -> raise (Fault.Unserializable m)
  | E_deadlock m -> raise (Deadlock m)
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

let write_verdict fd (v : verdict) =
  let b = Marshal.to_bytes v [] in
  let hdr = Bytes.create 8 in
  Bytes.set_int64_le hdr 0 (Int64.of_int (Bytes.length b));
  write_all fd hdr 0 8;
  write_all fd b 0 (Bytes.length b)

(* [None] = the child died before reporting (exit, signal): a real crash. *)
let read_verdict fd : verdict option =
  let hdr = Bytes.create 8 in
  if not (read_all fd hdr 0 8) then None
  else begin
    let len = Int64.to_int (Bytes.get_int64_le hdr 0) in
    let b = Bytes.create len in
    if read_all fd b 0 len then Some (Marshal.from_bytes b 0 : verdict) else None
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
              p_out = Queue.create ();
              p_off = 0;
              p_rbuf = Bytes.create 4096;
              p_rlen = 0;
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
      scratch = Bytes.create 65536;
    }
  in
  let eng = engine st cost topology in
  let v =
    match
      let res = program rank eng in
      finish_clean st;
      res
    with
    | res -> { v_out = Ok res; v_crashed = false; v_sent = st.c_sent; v_recvd = st.c_recvd }
    | exception Fault.Crashed r when r = rank ->
        abrupt_close st;
        { v_out = Ok None; v_crashed = true; v_sent = st.c_sent; v_recvd = st.c_recvd }
    | exception e ->
        abrupt_close st;
        { v_out = Error (err_repr e); v_crashed = false; v_sent = st.c_sent; v_recvd = st.c_recvd }
  in
  (try write_verdict my_vfd v with _ -> ());
  Unix._exit 0

let rec reap pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (EINTR, _, _) -> reap pid
  | exception Unix.Unix_error (ECHILD, _, _) -> ()

let run_core ?(cost = Cost_model.ap1000) ?topology ~procs
    (program : int -> Engine.t -> bytes option) : bytes option array * stats =
  if procs <= 0 then invalid_arg "Procs.run_each: procs must be positive";
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
  let t0 = Unix.gettimeofday () in
  let pids =
    Array.init procs (fun r ->
        match Unix.fork () with
        | 0 ->
            (try child_main ~rank:r ~procs ~cost ~topology ~t0 ~mesh ~vfd program
             with _ -> ());
            (* only reached if child_main itself blew up before its verdict *)
            Unix._exit 127
        | pid -> pid)
  in
  (* every socket end now lives in exactly one child *)
  Array.iter
    (Array.iter (function
      | Some (a, b) ->
          close_noerr a;
          close_noerr b
      | None -> ()))
    mesh;
  Array.iter (fun (_, child_end) -> close_noerr child_end) vfd;
  let verdicts =
    Array.mapi
      (fun r (parent_end, _) ->
        let v = read_verdict parent_end in
        close_noerr parent_end;
        ignore r;
        v)
      vfd
  in
  Array.iter reap pids;
  let wall = Unix.gettimeofday () -. t0 in
  let crashed = ref [] and first_error = ref None in
  let results = Array.make procs None in
  let sent = ref 0 and recvd = ref 0 in
  Array.iteri
    (fun r v ->
      match v with
      | None -> crashed := r :: !crashed
      | Some v ->
          sent := !sent + v.v_sent;
          recvd := !recvd + v.v_recvd;
          if v.v_crashed then crashed := r :: !crashed
          else begin
            match v.v_out with
            | Ok res -> results.(r) <- res
            | Error e -> if Option.is_none !first_error then first_error := Some (r, e)
          end)
    verdicts;
  (match !first_error with Some (r, e) -> reraise_child r e | None -> ());
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

let run ?cost ?topology ~procs program =
  run_each ?cost ?topology ~procs (fun _rank eng -> program eng)

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
  match Array.find_map Fun.id results with
  | Some b -> ((Marshal.from_bytes b 0 : a), stats)
  | None -> invalid_arg "Procs.run_collect: no processor produced a result"
