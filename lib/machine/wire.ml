(* The procs stream protocol: frame format, outbound cursor, inbound
   parser and arena rings.  Pure; see wire.mli for the protocol. *)

let header_len = 17
let chunk = 65536
let k_marshal = 0
let k_goodbye = 1
let k_arena_floats = 2
let k_arena_ints = 3
let k_credit = 4

(* Payload bytes that follow a header of [kind] announcing [len]. *)
let body_bytes kind len =
  if kind = k_marshal then len else if kind = k_arena_floats || kind = k_arena_ints then 16 else 0

let header kind tag len extra =
  let b = Bytes.create (header_len + extra) in
  Bytes.set b 0 (Char.chr kind);
  Bytes.set_int64_le b 1 (Int64.of_int tag);
  Bytes.set_int64_le b 9 (Int64.of_int len);
  b

let get b pos = Int64.to_int (Bytes.get_int64_le b pos)

(* ------------------------------------------------------------------- rings *)

type ring = { r_base : int; r_cap : int; mutable r_head : int; mutable r_tail : int }

let ring_of ~elems ~procs ~src ~dst =
  let cap = elems / (procs * (procs - 1)) in
  if 8 * cap < chunk then None
  else
    let slot = (src * (procs - 1)) + if dst < src then dst else dst - 1 in
    Some { r_base = slot * cap; r_cap = cap; r_head = 0; r_tail = 0 }

let reserve r n =
  let pos = r.r_head mod r.r_cap in
  let skip = if pos + n > r.r_cap then r.r_cap - pos else 0 in
  if r.r_head + skip + n - r.r_tail > r.r_cap then None
  else begin
    r.r_head <- r.r_head + skip + n;
    Some (r.r_base + (if skip > 0 then 0 else pos), skip + n)
  end

(* ----------------------------------------------------------------- streams *)

(* A frame queued whole: its header with any payload of up to one chunk
   behind it, then a larger payload as it stands. *)
type frame = { head : bytes; body : bytes; credit : bool }

type slice_kind = Floats | Ints

type event =
  | Message of { tag : int; payload : bytes }
  | Slice of { kind : slice_kind; tag : int; off : int; len : int; span : int }

(* A [Marshal] frame larger than a chunk, read straight into its payload. *)
type large = { l_tag : int; l_payload : bytes; mutable l_got : int }

type t = {
  chunk : int;
  self : int;
  peer : int;
  mutable run : int;
  mutable ring : ring option;  (* ours toward the peer *)
  mutable queue : frame list;  (* oldest first *)
  mutable sent : int;  (* bytes of the first queued frame written *)
  mutable owed : int;  (* elements of the peer's ring we have freed, not yet queued *)
  mutable closed : bool;  (* our goodbye is queued *)
  tail : bytes;  (* inbound bytes not yet parsed: a header and one chunk at most *)
  mutable held : int;
  mutable large : large option;
  mutable fin : bool;  (* the peer's goodbye was parsed *)
}

let create ~chunk ~self ~peer =
  if chunk < 16 then invalid_arg "Wire.create: chunk < 16";
  let tail = Bytes.create (header_len + chunk) in
  { chunk; self; peer; run = 0; ring = None; queue = []; sent = 0; owed = 0; closed = false; tail;
    held = 0; large = None; fin = false }

(* The outbound queue is empty by now: a clean run wrote every frame,
   and a failed one retires the pool. *)
let start t ~run ~ring =
  t.run <- run;
  t.ring <- ring;
  t.owed <- 0;
  t.closed <- false;
  t.fin <- false

(* ---------------------------------------------------------------- outbound *)

let enqueue t f =
  if t.closed then
    invalid_arg (Printf.sprintf "Wire: p%d queued a frame to p%d after its goodbye" t.self t.peer);
  t.queue <- t.queue @ [ f ]

let control kind tag len = { head = header kind tag len 0; body = Bytes.empty; credit = kind = k_credit }
let credit_frame t = control k_credit t.run t.owed

let send t ~tag payload =
  let n = Bytes.length payload in
  if n > t.chunk then enqueue t { head = header k_marshal tag n 0; body = payload; credit = false }
  else begin
    let head = header k_marshal tag n n in
    Bytes.blit payload 0 head header_len n;
    enqueue t { head; body = Bytes.empty; credit = false }
  end

let reserve_slice t n =
  match t.ring with Some r when 8 * n >= t.chunk -> reserve r n | _ -> None

let send_slice t ~kind ~tag ~len ~off ~span =
  let b = header (if kind = Floats then k_arena_floats else k_arena_ints) tag len 16 in
  Bytes.set_int64_le b header_len (Int64.of_int off);
  Bytes.set_int64_le b (header_len + 8) (Int64.of_int span);
  enqueue t { head = b; body = Bytes.empty; credit = false }

let goodbye t =
  if t.owed > 0 then enqueue t (credit_frame t);
  t.owed <- 0;
  enqueue t (control k_goodbye 0 0);
  t.closed <- true

let next t =
  (* owed credit goes out between whole frames, ahead of any not begun *)
  if t.owed > 0 && (not t.closed) && t.sent = 0 then begin
    t.queue <- credit_frame t :: t.queue;
    t.owed <- 0
  end;
  match t.queue with
  | [] -> None
  | f :: _ ->
      let h = Bytes.length f.head in
      if t.sent < h then Some (f.head, t.sent, h - t.sent)
      else Some (f.body, t.sent - h, Bytes.length f.body - (t.sent - h))

let advance t n =
  let f = List.hd t.queue in
  t.sent <- t.sent + n;
  if t.sent = Bytes.length f.head + Bytes.length f.body then begin
    t.queue <- List.tl t.queue;
    t.sent <- 0
  end

let backlog t = List.exists (fun f -> not f.credit) t.queue

(* ----------------------------------------------------------------- inbound *)

let read_into t =
  match t.large with
  | Some l -> (l.l_payload, l.l_got, Bytes.length l.l_payload - l.l_got)
  | None -> (t.tail, t.held, Bytes.length t.tail - t.held)

(* A whole frame whose body starts at [pos] of the tail. *)
let frame t ~kind ~tag ~len pos =
  if kind = k_marshal then Some (Message { tag; payload = Bytes.sub t.tail pos len })
  else if kind = k_arena_floats || kind = k_arena_ints then begin
    let span = get t.tail (pos + 8) and kind = if kind = k_arena_floats then Floats else Ints in
    t.owed <- t.owed + span;
    Some (Slice { kind; tag; off = get t.tail pos; len; span })
  end
  else begin
    if kind = k_goodbye then t.fin <- true
    else if kind = k_credit && tag = t.run then Option.iter (fun r -> r.r_tail <- r.r_tail + len) t.ring
    else if kind = k_credit then
      failwith
        (Printf.sprintf "Wire: p%d got a credit frame of run %d from p%d in run %d" t.self tag t.peer
           t.run)
    else failwith (Printf.sprintf "Wire: p%d got a frame of kind %d from p%d" t.self kind t.peer);
    None
  end

let filled t n =
  match t.large with
  | Some l ->
      l.l_got <- l.l_got + n;
      if l.l_got < Bytes.length l.l_payload then []
      else begin
        t.large <- None;
        [ Message { tag = l.l_tag; payload = l.l_payload } ]
      end
  | None ->
      t.held <- t.held + n;
      let events = ref [] and pos = ref 0 and more = ref true in
      while !more && t.held - !pos >= header_len do
        let p = !pos in
        let kind = Char.code (Bytes.get t.tail p) and tag = get t.tail (p + 1) and len = get t.tail (p + 9) in
        let body = body_bytes kind len and have = t.held - p - header_len in
        if t.fin then failwith (Printf.sprintf "Wire: p%d got a frame from p%d after its goodbye" t.self t.peer);
        if body > t.chunk then begin
          (* the tail holds less than a chunk of it: the payload takes
             that and the rest is read straight into it *)
          let payload = Bytes.create body in
          Bytes.blit t.tail (p + header_len) payload 0 have;
          t.large <- Some { l_tag = tag; l_payload = payload; l_got = have };
          pos := t.held;
          more := false
        end
        else if have < body then more := false
        else begin
          Option.iter (fun e -> events := e :: !events) (frame t ~kind ~tag ~len (p + header_len));
          pos := p + header_len + body
        end
      done;
      if !pos > 0 then begin
        Bytes.blit t.tail !pos t.tail 0 (t.held - !pos);
        t.held <- t.held - !pos
      end;
      List.rev !events

let finished t = t.fin
