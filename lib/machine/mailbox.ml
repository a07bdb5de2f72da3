(* One home for MPI's matching rule, kept for all three engines.

   A FIFO ring of messages in parallel arrays (no per-message record, no
   list cell, no option): [src] and [tag] are plain ints, and [pay] is a
   pointer array, since it is created from the caller's empty value.
   Capacity is a power of two; growth doubles and compacts to head = 0.
   Push order is arrival order, so the first match of a pattern is the
   oldest on its (source, tag) channel: the non-overtaking rule costs no
   bookkeeping.  [seen] marks the sources [iter_heads] has already
   passed, stamped with the walk's number so it is never cleared. *)

type 'a t = {
  mutable src : int array;
  mutable tag : int array;
  mutable pay : 'a array;
  mutable head : int;  (* position of the oldest entry *)
  mutable count : int;
  empty : 'a;
  mutable seen : int array;  (* by source: the last walk that passed it *)
  mutable walk : int;
}

let create empty =
  {
    src = Array.make 16 0;
    tag = Array.make 16 0;
    pay = Array.make 16 empty;
    head = 0;
    count = 0;
    empty;
    seen = [||];
    walk = 0;
  }

let length t = t.count
let[@inline] slot t i = (t.head + i) land (Array.length t.src - 1)

let grow t =
  let c = Array.length t.src in
  let nsrc = Array.make (2 * c) 0
  and ntag = Array.make (2 * c) 0
  and npay = Array.make (2 * c) t.empty in
  for j = 0 to t.count - 1 do
    let p = slot t j in
    nsrc.(j) <- t.src.(p);
    ntag.(j) <- t.tag.(p);
    npay.(j) <- t.pay.(p)
  done;
  t.src <- nsrc;
  t.tag <- ntag;
  t.pay <- npay;
  t.head <- 0

let push t ~src ~tag v =
  if t.count = Array.length t.src then grow t;
  let i = slot t t.count in
  Array.unsafe_set t.src i src;
  Array.unsafe_set t.tag i tag;
  Array.unsafe_set t.pay i v;
  t.count <- t.count + 1

let[@inline] matches t p ~src ~tag ~any_tag =
  (src < 0 || Array.unsafe_get t.src p = src) && (any_tag || Array.unsafe_get t.tag p = tag)

let find t ~src ~tag ~any_tag =
  let found = ref (-1) and j = ref 0 in
  while !found < 0 && !j < t.count do
    if matches t (slot t !j) ~src ~tag ~any_tag then found := !j else incr j
  done;
  !found

let src t i = t.src.(slot t i)
let payload t i = t.pay.(slot t i)

(* The usual match is the oldest, so the gap-closing shift of the older
   entries is almost always empty. *)
let take t i =
  let v = payload t i in
  for k = i downto 1 do
    let dst = slot t k and sp = slot t (k - 1) in
    t.src.(dst) <- t.src.(sp);
    t.tag.(dst) <- t.tag.(sp);
    t.pay.(dst) <- t.pay.(sp)
  done;
  t.pay.(t.head) <- t.empty;
  t.head <- slot t 1;
  t.count <- t.count - 1;
  v

let iter_heads t ~src ~tag ~any_tag f =
  t.walk <- t.walk + 1;
  let j = ref 0 in
  while !j < t.count do
    let p = slot t !j in
    if matches t p ~src ~tag ~any_tag then begin
      let s = t.src.(p) in
      if s >= Array.length t.seen then begin
        let seen = Array.make (max (s + 1) (2 * Array.length t.seen)) 0 in
        Array.blit t.seen 0 seen 0 (Array.length t.seen);
        t.seen <- seen
      end;
      if t.seen.(s) <> t.walk then begin
        t.seen.(s) <- t.walk;
        f !j
      end
    end;
    incr j
  done

let clear t =
  for j = 0 to t.count - 1 do
    t.pay.(slot t j) <- t.empty
  done;
  t.head <- 0;
  t.count <- 0

let transfer t ~into =
  let n = t.count in
  for j = 0 to n - 1 do
    let p = slot t j in
    push into ~src:t.src.(p) ~tag:t.tag.(p) t.pay.(p);
    t.pay.(p) <- t.empty
  done;
  t.head <- 0;
  t.count <- 0;
  n

let check_undelivered ?(skip = fun _ -> false) t ~rank =
  let count = ref 0 and first = ref (-1) in
  for j = t.count - 1 downto 0 do
    if not (skip (src t j)) then begin
      incr count;
      first := j
    end
  done;
  if !count > 0 then
    Engine.check_undelivered ~rank ~count:!count ~src:(src t !first) ~tag:t.tag.(slot t !first)
