(* The storage-independent half of the int LSD radix sorts: the flat
   tier's [Flat.Int.sort] on Bigarray storage and [Seq_kernels.quicksort]
   on [int array].  Each storage writes its own four loops (first read,
   count, deal, deal+count) with unchecked accesses, since a loop that
   reads its keys through a closure or a functor argument would pay a
   call per key; everything else is here, once. *)

let insertion_cutoff = 32

type plan = { passes : int; width : int; mask : int }

let plan ~digit_bits range =
  let rec bits r = if r = 0 then 0 else 1 + bits (r lsr 1) in
  let b = bits range in
  if b = 0 then { passes = 0; width = 0; mask = 0 }
  else begin
    let passes = (b + digit_bits - 1) / digit_bits in
    let width = (b + passes - 1) / passes in
    { passes; width; mask = (1 lsl width) - 1 }
  end

(* digit 0 of [x - base] is [(x land (radix - 1)) - (base land (radix -
   1))] modulo [2^width], as [width <= log2 radix] *)
let rotate_low ~low ~base ~mask (cnt : int array) =
  let radix = Array.length low in
  let r = base land (radix - 1) in
  for d = 0 to radix - 1 do
    let e = (d - r) land mask in
    Array.unsafe_set cnt e (Array.unsafe_get cnt e + Array.unsafe_get low d)
  done

(* Turns [cnt]'s counts into each bucket's first slot; false, with the
   counts unchanged, when one bucket holds all [n] keys (the digit is
   constant, so its pass would move nothing). *)
let bucket_starts (cnt : int array) mask n =
  let constant = ref false in
  for d = 0 to mask do
    if Array.unsafe_get cnt d = n then constant := true
  done;
  (not !constant)
  &&
  let pos = ref 0 in
  for d = 0 to mask do
    let c = Array.unsafe_get cnt d in
    Array.unsafe_set cnt d !pos;
    pos := !pos + c
  done;
  true

type 's loops = {
  count : 's -> int -> int -> int -> int -> int array -> unit;
  deal : 's -> 's -> int -> int -> int -> int -> int array -> unit;
  deal_count : 's -> 's -> int -> int -> int -> int -> int array -> int -> int array -> unit;
}

(* Two count tables take turns: [cur] holds the digit being dealt, and
   [next] receives the next digit's counts while the deal runs. *)
let passes loops plan ~n ~base ~low ~src ~dst ~spare =
  let { passes; width = w; mask } = plan in
  let cur = ref (Array.make (Array.length low) 0) and next = ref low in
  rotate_low ~low ~base ~mask !cur;
  let src = ref src and dst = ref (Some dst) and first = ref true in
  let counted = ref true in
  for p = 0 to passes - 1 do
    let shift = p * w in
    if not !counted then begin
      Array.fill !cur 0 (mask + 1) 0;
      loops.count !src n base shift mask !cur
    end;
    counted := false;
    if bucket_starts !cur mask n then begin
      let d = match !dst with Some d -> d | None -> spare () in
      if p < passes - 1 then begin
        Array.fill !next 0 (mask + 1) 0;
        loops.deal_count !src d n base shift mask !cur (shift + w) !next;
        counted := true
      end
      else loops.deal !src d n base shift mask !cur;
      let s = !src and c = !cur in
      src := d;
      dst := if !first then None else Some s;
      first := false;
      cur := !next;
      next := c
    end
  done;
  !src
