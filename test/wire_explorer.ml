(* An exhaustive-schedule explorer for [Machine.Wire], the procs stream
   protocol.  It drives the very functions a procs rank calls over a
   model transport: every directed stream is a byte queue of a fixed
   capacity, the arena is an array of stamped elements, and each rank
   runs a short script of sends, arena sends and receives, then says
   goodbye, drains (still delivering) and checks for messages it never
   received, three times over (three runs on the same streams).

   A rank moves as a procs rank can: it queues a frame and writes it
   while the socket takes bytes, reading meanwhile (a blocked send's
   [step]); it reads while a receive has no match, and in the drain; and
   after every read it writes what it owes that peer ([write_some]).  A
   write takes a chosen number of bytes (1, a header less one, a header,
   or all the socket has room for) and then finds the socket full;
   after a read the socket may also be full at once.  Everything else a
   rank does between two such moves is local to it and is applied at
   once.

   Schedules are enumerated depth-first, and a state already seen (the
   hash of its canonical encoding: [Marshal] without sharing) is not
   explored again.  The invariants, checked after every move:
   - a ring never has more elements in flight than it holds;
   - no arena block is overwritten before its reader copied it out;
   - nothing follows a goodbye (a frame after one makes [Wire.filled]
     fail, and every stream and stream tail is empty when a run ends);
   - no frame crosses runs (a stale credit makes [Wire.filled] fail, and
     every value names the run that sent it), also after a run that
     failed with a message undelivered: the explorer goes on to the next
     run where the engine would retire the pool;
   - every receive gets the value sent, in per-(src, tag) FIFO order;
   - no reachable state leaves an unfinished rank with nothing to do,
     so the drain terminates.
   A violation is reported with the schedule that reached it, as a
   numbered trace. *)

open Machine

type op =
  | Send of int * int * int  (* dst, tag, padding: a boxed value of 24 + padding bytes *)
  | Slice of int * int * int  (* dst, tag, elements: an int slice, through the arena if it fits *)
  | Recv of int * int  (* src, tag *)

type config = {
  name : string;
  ranks : int;
  chunk : int;  (* [Wire.create]'s: a boxed payload over it is read into its own buffer *)
  ring : int;  (* elements of each directed ring *)
  capacity : int;  (* bytes a stream holds before a write would block *)
  cuts : int list;  (* where a write may stop short in its segment ([max_int]: nowhere) *)
  scripts : op list array list;  (* per run, per rank *)
}

type value = Boxed of int * string | Stamps of int array

type mode =
  | Run  (* at its script's next op *)
  | Sending of int  (* a frame to this peer is not wholly written *)
  | Bye of int  (* saying goodbye to this peer, then to the next ones *)
  | Draining
  | Done

type rank = {
  mutable pc : int;
  mutable mode : mode;
  wires : Wire.t option array;
  mutable rings : Wire.ring option array;
  mutable box : (int * int * value) list;  (* arrived, not received, oldest first *)
}

type state = {
  mutable run : int;  (* index into [scripts] *)
  ranks_ : rank array;
  streams : string array array;  (* [src].(dst): written, not yet read *)
  arena : int array;
  live : bool array;  (* written by a sender, not yet copied out or dropped *)
}

exception Violation of string

let fail fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt

(* What the local steps of the move being applied did, for the trace. *)
let notes : string list ref = ref []
let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt

(* Moves after which a rank found a message undelivered. *)
let failed_runs = ref 0
let wire st r q = Option.get st.ranks_.(r).wires.(q)

(* The value of a send op that is the [k]th from [src] on its (dst, tag)
   in run [run]: every element names all of that. *)
let stamp ~run ~src ~tag ~k i = (((((run * 10) + src) * 10) + tag) * 10 + k) * 10 + i

let value ~run ~src ~tag ~k = function
  | Send (_, _, pad) -> Boxed (stamp ~run ~src ~tag ~k 0, String.make pad 'x')
  | Slice (_, _, n) -> Stamps (Array.init n (stamp ~run ~src ~tag ~k))
  | Recv _ -> assert false

let sends_to dst tag = function Send (d, t, _) | Slice (d, t, _) -> d = dst && t = tag | Recv _ -> false

(* What the [k]th receive of [dst] from [src] on [tag] must get. *)
let expected cfg ~run ~src ~dst ~tag k =
  match List.nth_opt (List.filter (sends_to dst tag) (List.nth cfg.scripts run).(src)) k with
  | Some op -> value ~run ~src ~tag ~k op
  | None -> fail "p%d receives a message p%d never sent" dst src

(* How many ops before [pc] in [script] match [f]. *)
let count_before script pc f =
  List.length (List.filter f (List.filteri (fun i _ -> i < pc) script))

let ring_slot cfg ~src ~dst = (src * (cfg.ranks - 1)) + if dst < src then dst else dst - 1

let start_run cfg st run =
  st.run <- run;
  Array.fill st.live 0 (Array.length st.live) false;
  Array.iteri
    (fun r rk ->
      rk.pc <- 0;
      rk.mode <- Run;
      rk.box <- [];
      rk.rings <-
        Array.init cfg.ranks (fun q ->
            if q = r then None
            else
              Some
                {
                  Wire.r_base = ring_slot cfg ~src:r ~dst:q * cfg.ring;
                  r_cap = cfg.ring;
                  r_head = 0;
                  r_tail = 0;
                });
      Array.iteri
        (fun q -> Option.iter (fun w -> Wire.start w ~run:(run + 1) ~ring:rk.rings.(q)))
        rk.wires)
    st.ranks_

let init cfg =
  let ranks_ =
    Array.init cfg.ranks (fun r ->
        {
          pc = 0;
          mode = Run;
          wires =
            Array.init cfg.ranks (fun q ->
                if q = r then None else Some (Wire.create ~chunk:cfg.chunk ~self:r ~peer:q));
          rings = [||];
          box = [];
        })
  in
  let elems = cfg.ranks * (cfg.ranks - 1) * cfg.ring in
  let st =
    {
      run = 0;
      ranks_;
      streams = Array.make_matrix cfg.ranks cfg.ranks "";
      arena = Array.make elems 0;
      live = Array.make elems false;
    }
  in
  start_run cfg st 0;
  st

(* [write_some] with a socket that takes what it has room for up to
   position [cut] of the segment being written (every byte it has room
   for when [cut] is [max_int], none when it is 0), and is then full. *)
let write cfg st r q cut =
  let w = wire st r q in
  let rec go total =
    let room = cfg.capacity - String.length st.streams.(r).(q) in
    if cut = 0 || room = 0 then total
    else
      match Wire.next w with
      | None -> total
      | Some (b, off, len) ->
          let m = min room ((if cut = max_int then off + len else min (off + len) cut) - off) in
          if m <= 0 then total
          else begin
            st.streams.(r).(q) <- st.streams.(r).(q) ^ Bytes.sub_string b off m;
            Wire.advance w m;
            if cut = max_int then go (total + m) else total + m
          end
  in
  go 0

(* A frame's events, handled as [Procs.deliver] does: a slice is copied
   out at once, in the drain too. *)
let deliver st r q ev =
  let rk = st.ranks_.(r) in
  match ev with
  | Wire.Message { tag; payload } -> rk.box <- rk.box @ [ (q, tag, (Marshal.from_bytes payload 0 : value)) ]
  | Wire.Slice { off; len; tag; _ } ->
      for e = off to off + len - 1 do
        if not st.live.(e) then fail "p%d copies arena element %d, which holds no block" r e
      done;
      rk.box <- rk.box @ [ (q, tag, Stamps (Array.sub st.arena off len)) ];
      Array.fill st.live off len false;
      Array.fill st.arena off len 0

(* One read from [q]'s stream into [r], as much as has arrived and fits
   where [Wire.read_into] says, then a flush toward [q]. *)
let read cfg st r q cut =
  let w = wire st r q in
  let b, off, len = Wire.read_into w in
  let s = st.streams.(q).(r) in
  let m = min len (String.length s) in
  Bytes.blit_string s 0 b off m;
  st.streams.(q).(r) <- String.sub s m (String.length s - m);
  let evs = Wire.filled w m in
  List.iter (deliver st r q) evs;
  let wrote = write cfg st r q cut in
  let n = List.length evs in
  Printf.sprintf "p%d reads %d B from p%d%s, then writes %d B back" r m q
    (if n = 0 then "" else Printf.sprintf " (%d message%s)" n (if n > 1 then "s" else ""))
    wrote

let live_from st r q = not (Wire.finished (wire st r q))

(* The local steps every rank takes without waiting on anything. *)
let rec settle cfg st =
  let progressed = ref false in
  let script r = (List.nth cfg.scripts st.run).(r) in
  Array.iteri
    (fun r rk ->
      let step () = progressed := true in
      match rk.mode with
      | Run when rk.pc >= List.length (script r) ->
          let first = if r = 0 then 1 else 0 in
          Wire.goodbye (wire st r first);
          note "p%d says goodbye to p%d" r first;
          rk.mode <- Bye first;
          step ()
      | Run -> (
          let op = List.nth (script r) rk.pc in
          match op with
          | (Send (dst, tag, _) | Slice (dst, tag, _)) as op -> (
              let k = count_before (script r) rk.pc (sends_to dst tag) in
              let v = value ~run:st.run ~src:r ~tag ~k op in
              let w = wire st r dst in
              rk.mode <- Sending dst;
              step ();
              let placed = match op with Slice (_, _, n) -> Wire.reserve_slice w n | _ -> None in
              match (placed, v) with
              | Some (off, span), Stamps stamps ->
                  let n = Array.length stamps in
                  for e = off to off + n - 1 do
                    if st.live.(e) then
                      fail "p%d overwrites arena element %d before its reader copied it out" r e;
                    st.live.(e) <- true;
                    st.arena.(e) <- stamps.(e - off)
                  done;
                  Wire.send_slice w ~kind:Wire.Ints ~tag ~len:n ~off ~span;
                  note "p%d sends p%d tag %d through the arena at %d (span %d)" r dst tag off span
              | _ ->
                  let payload = Marshal.to_bytes v [] in
                  Wire.send w ~tag payload;
                  note "p%d sends p%d tag %d (%d B boxed)" r dst tag (Bytes.length payload))
          | Recv (src, tag) -> (
              let rec take acc = function
                | (s, t, v) :: rest when s = src && t = tag -> Some (v, List.rev_append acc rest)
                | x :: rest -> take (x :: acc) rest
                | [] -> None
              in
              match take [] rk.box with
              | Some (v, rest) ->
                  let k =
                    count_before (script r) rk.pc (function Recv (s, t) -> s = src && t = tag | _ -> false)
                  in
                  if v <> expected cfg ~run:st.run ~src ~dst:r ~tag k then
                    fail "p%d receives the wrong value from p%d on tag %d" r src tag;
                  rk.box <- rest;
                  rk.pc <- rk.pc + 1;
                  note "p%d receives from p%d tag %d" r src tag;
                  step ()
              | None ->
                  if not (live_from st r src) then
                    fail "p%d waits on p%d tag %d, which finished without sending it" r src tag))
      | Sending q when not (Wire.backlog (wire st r q)) ->
          rk.pc <- rk.pc + 1;
          rk.mode <- Run;
          step ()
      | Bye q when not (Wire.backlog (wire st r q)) ->
          let next = if q + 1 = r then q + 2 else q + 1 in
          if next < cfg.ranks then begin
            Wire.goodbye (wire st r next);
            note "p%d says goodbye to p%d" r next;
            rk.mode <- Bye next
          end
          else rk.mode <- Draining;
          step ()
      | Draining when List.for_all (fun q -> q = r || not (live_from st r q)) (List.init cfg.ranks Fun.id) ->
          (* [Procs.finish_clean]: once every peer has said goodbye, a
             message not received is reported, and the run fails *)
          if rk.box <> [] then begin
            incr failed_runs;
            note "p%d finds %d message(s) undelivered" r (List.length rk.box);
            rk.box <- []
          end;
          rk.mode <- Done;
          note "p%d has drained" r;
          step ()
      | _ -> ())
    st.ranks_;
  if Array.for_all (fun rk -> rk.mode = Done) st.ranks_ then begin
    (* the run is over: nothing may be left for the next one *)
    Array.iteri
      (fun s row ->
        Array.iteri
          (fun d bytes ->
            if bytes <> "" then
              fail "%d B from p%d to p%d are left after run %d" (String.length bytes) s d (st.run + 1))
          row)
      st.streams;
    Array.iteri
      (fun r rk ->
        Array.iteri
          (fun q w ->
            Option.iter
              (fun w ->
                let _, off, _ = Wire.read_into w in
                if off > 0 then fail "p%d holds %d B from p%d after run %d" r off q (st.run + 1))
              w)
          rk.wires)
      st.ranks_;
    if st.run + 1 < List.length cfg.scripts then begin
      note "run %d ends; run %d starts" (st.run + 1) (st.run + 2);
      start_run cfg st (st.run + 1);
      progressed := true
    end
  end;
  if !progressed then settle cfg st

let check_rings st =
  Array.iteri
    (fun r rk ->
      Array.iteri
        (fun q ring ->
          Option.iter
            (fun (g : Wire.ring) ->
              let inflight = g.r_head - g.r_tail in
              if inflight < 0 || inflight > g.r_cap then
                fail "p%d's ring toward p%d has %d elements in flight, capacity %d" r q inflight g.r_cap)
            ring)
        rk.rings)
    st.ranks_

type move = Write of int * int * int | Read of int * int * int

(* Every move open to each rank, the longest writes first, so that a
   violation tends to be found by a short schedule.  After a read, the
   flush toward that peer may also find the socket full at once, or
   take one byte. *)
let moves cfg st =
  let writes = List.rev cfg.cuts in
  let flushes = List.rev (0 :: List.filter (fun c -> c = 1 || c = max_int) cfg.cuts) in
  let ranks = List.init cfg.ranks Fun.id in
  List.concat_map
    (fun r ->
      let reads =
        List.concat_map
          (fun q ->
            if q <> r && st.streams.(q).(r) <> "" && live_from st r q then
              List.map (fun c -> Read (r, q, c)) flushes
            else [])
          ranks
      in
      match st.ranks_.(r).mode with
      | (Sending q | Bye q) when String.length st.streams.(r).(q) < cfg.capacity ->
          List.map (fun c -> Write (r, q, c)) writes @ reads
      | Done -> []
      | Run | Sending _ | Bye _ | Draining -> reads)
    ranks

let apply cfg st = function
  | Write (r, q, c) -> Printf.sprintf "p%d writes %d B to p%d" r (write cfg st r q c) q
  | Read (r, q, c) -> read cfg st r q c

(* The state's encoding, from which it is cloned and by whose digest it
   is known.  Bytes no one will read (past the end of what a stream tail
   or payload holds) are zeroed first, so that they do not tell apart
   states that are the same. *)
let encode st =
  Array.iter
    (fun rk ->
      Array.iter
        (Option.iter (fun w ->
             let b, off, len = Wire.read_into w in
             Bytes.fill b off len '\000'))
        rk.wires)
    st.ranks_;
  Marshal.to_string st []

let decode s : state = Marshal.from_string s 0

type result = {
  states : int;  (* distinct states reached *)
  transitions : int;
  failed_runs : int;  (* moves after which a rank found a message undelivered *)
  violation : string option;
  seconds : float;
}

let trace path msg =
  let steps = List.rev path in
  let b = Buffer.create 1024 in
  Printf.bprintf b "%s\nafter %d moves:\n" msg (List.length steps);
  List.iteri (fun i s -> Printf.bprintf b "  %2d. %s\n" (i + 1) s) steps;
  Buffer.contents b

let describe_mode = function
  | Run -> "waits in a receive"
  | Sending q -> Printf.sprintf "sends to p%d" q
  | Bye q -> Printf.sprintf "says goodbye to p%d" q
  | Draining -> "drains"
  | Done -> "is done"

let explore cfg =
  let t0 = Unix.gettimeofday () in
  let seen = Hashtbl.create 65536 and transitions = ref 0 in
  failed_runs := 0;
  let describe step = String.concat "; " (step :: List.rev !notes) in
  let rec dfs enc path =
    let st = decode enc in
    match moves cfg st with
    | [] ->
        if not (Array.for_all (fun rk -> rk.mode = Done) st.ranks_) then
          raise
            (Violation
               (trace path
                  ("stuck: "
                  ^ String.concat ", "
                      (Array.to_list
                         (Array.mapi (fun r rk -> Printf.sprintf "p%d %s" r (describe_mode rk.mode)) st.ranks_)))))
    | ms ->
        List.iteri
          (fun i m ->
            incr transitions;
            let st' = if i = 0 then st else decode enc in
            notes := [];
            let step =
              ref
                (match m with
                | Write (r, q, _) -> Printf.sprintf "p%d writes to p%d" r q
                | Read (r, q, _) -> Printf.sprintf "p%d reads from p%d" r q)
            in
            match
              step := apply cfg st' m;
              settle cfg st';
              check_rings st'
            with
            | exception (Violation msg | Failure msg | Invalid_argument msg) ->
                raise (Violation (trace (describe !step :: path) msg))
            | () ->
                let enc' = encode st' in
                let k = Digest.string enc' in
                if not (Hashtbl.mem seen k) then begin
                  Hashtbl.add seen k ();
                  dfs enc' (describe !step :: path)
                end)
          ms
  in
  let violation =
    match
      let st = init cfg in
      notes := [];
      settle cfg st;
      let enc = encode st in
      Hashtbl.add seen (Digest.string enc) ();
      dfs enc (if !notes = [] then [] else [ describe "start" ])
    with
    | () -> None
    | exception Violation msg -> Some msg
  in
  {
    states = Hashtbl.length seen;
    transitions = !transitions;
    failed_runs = !failed_runs;
    violation;
    seconds = Unix.gettimeofday () -. t0;
  }

(* The fixed bound [dune runtest] explores: rings of a few elements, a
   chunk of 24 bytes (arena slices of 3 elements and up; a boxed value
   of 24 bytes rides in the stream tail, one of 32 takes its own
   buffer), streams of a few bytes to a few frames, and three runs.  The
   last op of each second run is a slice its destination never
   receives: the destination reads it before or after its own goodbye
   (owing its credit after the goodbye in the second case) and finds it
   undelivered once it has drained, so every second run fails.  Every
   third run receives everything, so each schedule ends a run cleanly
   on streams that carried late traffic. *)
let every_cut = [ 1; Wire.header_len - 1; Wire.header_len; max_int ]

let config ?(cuts = every_cut) ~ranks ~ring ~capacity scripts =
  {
    name =
      Printf.sprintf "%d ranks, %d-element rings, %d B streams, writes cut at %s" ranks ring capacity
        (String.concat "/" (List.map (fun c -> if c = max_int then "end" else string_of_int c) cuts));
    ranks;
    chunk = 24;
    ring;
    capacity;
    cuts;
    scripts;
  }

(* Arena slices both ways, the second one of p1 wrapping or, when the
   first one's credit is not back yet, taking the stream; a boxed value
   larger than a chunk. *)
let both_ways =
  [
    [|
      [ Slice (1, 1, 3); Send (1, 2, 8); Recv (1, 1); Recv (1, 1) ];
      [ Slice (0, 1, 3); Recv (0, 1); Slice (0, 1, 3); Recv (0, 2) ];
    |];
    [| [ Recv (1, 3) ]; [ Send (0, 3, 0); Slice (0, 4, 3) ] |];
    [| [ Slice (1, 5, 3); Recv (1, 6) ]; [ Send (0, 6, 8); Recv (0, 5) ] |];
  ]

(* The same kinds of traffic, one message each way. *)
let one_each =
  [
    [| [ Slice (1, 1, 3); Recv (1, 2) ]; [ Recv (0, 1); Send (0, 2, 8) ] |];
    [| []; [ Slice (0, 4, 3) ] |];
    [| [ Recv (1, 5) ]; [ Slice (0, 5, 3) ] |];
  ]

(* A slice relayed through the middle rank as a boxed value, then a
   slice to rank 0 it never receives, then the relay the other way. *)
let relay =
  [
    [| [ Slice (1, 1, 3) ]; [ Recv (0, 1); Send (2, 1, 0) ]; [ Recv (1, 1) ] |];
    [| []; []; [ Slice (0, 4, 3) ] |];
    [| [ Recv (1, 5) ]; [ Recv (2, 5); Send (0, 5, 0) ]; [ Slice (1, 5, 3) ] |];
  ]

let bound =
  [
    config ~ranks:2 ~ring:5 ~capacity:6 one_each;
    config ~ranks:2 ~ring:5 ~capacity:34 both_ways;
    config ~ranks:2 ~ring:5 ~capacity:100 both_ways;
    config ~ranks:3 ~ring:4 ~capacity:20 ~cuts:[ max_int ] relay;
    config ~ranks:3 ~ring:4 ~capacity:40 ~cuts:[ Wire.header_len; max_int ] relay;
  ]
