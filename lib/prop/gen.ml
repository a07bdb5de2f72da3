(* Sized generators over Runtime.Xoshiro. A generator consumes randomness
   from a mutable PRNG state; the runner hands every case its own state
   derived by splitting a master stream, so cases are independent and each
   is replayable from (seed, case index). *)

type 'a t = size:int -> Runtime.Xoshiro.t -> 'a

let generate ?(size = 10) ~seed (g : 'a t) : 'a =
  g ~size (Runtime.Xoshiro.of_seed seed)

let return x : 'a t = fun ~size:_ _rng -> x
let map f (g : 'a t) : 'b t = fun ~size rng -> f (g ~size rng)

let map2 f (ga : 'a t) (gb : 'b t) : 'c t =
 fun ~size rng ->
  let a = ga ~size rng in
  let b = gb ~size rng in
  f a b

let bind (g : 'a t) (f : 'a -> 'b t) : 'b t =
 fun ~size rng -> (f (g ~size rng)) ~size rng

let ( let* ) = bind
let ( let+ ) g f = map f g
let pair ga gb = map2 (fun a b -> (a, b)) ga gb

let triple ga gb gc =
  let* a = ga in
  let* b = gb in
  let+ c = gc in
  (a, b, c)

let sized f : 'a t = fun ~size rng -> (f size) ~size rng
let bool : bool t = fun ~size:_ rng -> Runtime.Xoshiro.bool rng

let int_range lo hi : int t =
  if hi < lo then invalid_arg "Gen.int_range: hi < lo";
  fun ~size:_ rng -> lo + Runtime.Xoshiro.int rng (hi - lo + 1)

let oneof gens : 'a t =
  if gens = [] then invalid_arg "Gen.oneof: empty list";
  let arr = Array.of_list gens in
  fun ~size rng -> (arr.(Runtime.Xoshiro.int rng (Array.length arr))) ~size rng

let oneof_val xs = oneof (List.map return xs)

let frequency weighted : 'a t =
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 weighted in
  if total <= 0 then invalid_arg "Gen.frequency: non-positive total weight";
  fun ~size rng ->
    let k = Runtime.Xoshiro.int rng total in
    let rec pick k = function
      | [] -> assert false
      | (w, g) :: rest -> if k < w then g ~size rng else pick (k - w) rest
    in
    pick k weighted

let list_size (len : int t) (elem : 'a t) : 'a list t =
 fun ~size rng ->
  let n = len ~size rng in
  List.init n (fun _ -> elem ~size rng)

let array_size (len : int t) (elem : 'a t) : 'a array t =
 fun ~size rng ->
  let n = len ~size rng in
  Array.init n (fun _ -> elem ~size rng)
