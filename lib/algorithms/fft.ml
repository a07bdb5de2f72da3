(* Fast Fourier transform as a pure skeleton program: the bit-reversal
   permutation is a [send_one], each of the log n butterfly stages is a
   [fetch] across the xor-partner (exactly a hypercube dimension exchange)
   followed by an elementwise [imap] — the communication structure is the
   same as hyperquicksort's, which is why the hypercube was the natural
   home for both.

   Host rendering over ParArrays and an SPMD rendering over Dvec (any
   engine); both are verified against a naive O(n^2) DFT. *)

open Scl

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let log2_exact = Machine.Topology.log2_exact

(* Reverse the low [bits] bits of [i]. *)
let bit_reverse ~bits i =
  let r = ref 0 in
  for b = 0 to bits - 1 do
    if i land (1 lsl b) <> 0 then r := !r lor (1 lsl (bits - 1 - b))
  done;
  !r

let twiddle ~inverse ~span j =
  (* exp(-+ 2 pi i j / (2 * span)) *)
  let sign = if inverse then 1.0 else -1.0 in
  let angle = sign *. Float.pi *. float_of_int j /. float_of_int span in
  { Complex.re = cos angle; im = sin angle }

(* The stage-s butterfly for global index [i], given the partner value
   (from [i lxor span]). *)
let butterfly ~inverse ~span i (x : Complex.t) (partner : Complex.t) : Complex.t =
  let j = i land (span - 1) in
  let w = twiddle ~inverse ~span j in
  if i land span = 0 then Complex.add x (Complex.mul w partner)
  else Complex.sub partner (Complex.mul w x)

let check_length name n =
  if not (is_power_of_two n) then
    invalid_arg (name ^ ": length must be a positive power of two")

(* --- host-SCL rendering ------------------------------------------------------ *)

let fft_scl ?(exec = Exec.sequential) ?(inverse = false) (a : Complex.t array) :
    Complex.t array =
  let n = Array.length a in
  if n <= 1 then Array.copy a
  else begin
    check_length "Fft.fft_scl" n;
    let bits = log2_exact n in
    (* bit-reversal: a permutation send *)
    let x = Communication.send_one ~exec (bit_reverse ~bits) (Par_array.of_array a) in
    let stage s x =
      let span = 1 lsl s in
      let partner = Communication.fetch ~exec (fun i -> i lxor span) x in
      Elementary.imap ~exec
        (fun i (xi, pi) -> butterfly ~inverse ~span i xi pi)
        (Config.align x partner)
    in
    let x = Computational.iter_for bits (fun s x -> stage s x) x in
    let x = Par_array.to_array x in
    if inverse then Array.map (fun c -> Complex.div c { re = float_of_int n; im = 0.0 }) x
    else x
  end

let ifft_scl ?exec a = fft_scl ?exec ~inverse:true a

(* --- naive DFT reference ------------------------------------------------------ *)

let dft_naive ?(inverse = false) (a : Complex.t array) : Complex.t array =
  let n = Array.length a in
  let sign = if inverse then 1.0 else -1.0 in
  let out =
    Array.init n (fun k ->
        let acc = ref Complex.zero in
        for t = 0 to n - 1 do
          let angle = sign *. 2.0 *. Float.pi *. float_of_int (k * t) /. float_of_int n in
          acc := Complex.add !acc (Complex.mul a.(t) { re = cos angle; im = sin angle })
        done;
        !acc)
  in
  if inverse then Array.map (fun c -> Complex.div c { re = float_of_int n; im = 0.0 }) out
  else out

(* --- SPMD rendering (any engine) ----------------------------------------------- *)

open Machine

let flops_per_butterfly = 10

let fft_program ?(inverse = false) (a : Complex.t array option) (comm : Comm.t) :
    Complex.t array option =
  let dv = Scl_sim.Dvec.scatter comm ~root:0 a in
  let n = Scl_sim.Dvec.total dv in
  if n <= 1 then Scl_sim.Dvec.gather ~root:0 dv
  else begin
    let bits = log2_exact n in
    (* bit-reversal permutation: bit_reverse is an involution, so fetch with
       the same function realises the send *)
    let x = ref (Scl_sim.Dvec.fetch (bit_reverse ~bits) dv) in
    for s = 0 to bits - 1 do
      let span = 1 lsl s in
      let partner = Scl_sim.Dvec.fetch (fun i -> i lxor span) !x in
      Comm.work_flops comm (flops_per_butterfly * Scl_sim.Dvec.local_length !x);
      x :=
        Scl_sim.Dvec.imap ~flops_per_elem:0
          (fun i (xi, pi) -> butterfly ~inverse ~span i xi pi)
          (Scl_sim.Dvec.zip !x partner)
    done;
    let scale =
      if inverse then
        Scl_sim.Dvec.map ~flops_per_elem:2
          (fun c -> Complex.div c { Complex.re = float_of_int n; im = 0.0 })
          !x
      else !x
    in
    Scl_sim.Dvec.gather ~root:0 scale
  end

let fft backend ?(inverse = false) ~procs (a : Complex.t array) =
  check_length "Fft.fft" (max 1 (Array.length a));
  Scl_sim.Spmd.run backend ~procs (fun comm ->
      fft_program ~inverse (if Comm.rank comm = 0 then Some a else None) comm)

(* --- helpers for tests and demos ----------------------------------------------- *)

let complex_close (a : Complex.t array) (b : Complex.t array) ~eps =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Float.abs (x.Complex.re -. y.Complex.re) < eps && Float.abs (x.im -. y.im) < eps)
       a b

let random_signal ~seed n : Complex.t array =
  let rng = Runtime.Xoshiro.of_seed seed in
  Array.init n (fun _ ->
      { Complex.re = Runtime.Xoshiro.float rng 2.0 -. 1.0; im = Runtime.Xoshiro.float rng 2.0 -. 1.0 })
