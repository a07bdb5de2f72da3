(** Fast Fourier transform as a pure skeleton program: bit-reversal is a
    permutation [send_one], each butterfly stage is a [fetch] across the
    xor-partner (a hypercube dimension exchange) plus an elementwise
    [imap]. Verified against a naive O(n²) DFT. *)

open Machine

val fft_scl : ?exec:Scl.Exec.t -> ?inverse:bool -> Complex.t array -> Complex.t array
(** Host-SCL radix-2 FFT; the inverse is scaled by 1/n.
    @raise Invalid_argument unless the length is a power of two (length
    ≤ 1 is returned unchanged). *)

val ifft_scl : ?exec:Scl.Exec.t -> Complex.t array -> Complex.t array

val fft : 's Backend.t -> ?inverse:bool -> procs:int -> Complex.t array -> Complex.t array * 's
(** SPMD rendering over Dvec on the chosen engine; identical output on
    every engine. Any processor count (on the simulator the xor exchanges
    are priced by the topology). *)

val dft_naive : ?inverse:bool -> Complex.t array -> Complex.t array
(** O(n²) reference. *)

val bit_reverse : bits:int -> int -> int
val complex_close : Complex.t array -> Complex.t array -> eps:float -> bool
val random_signal : seed:int -> int -> Complex.t array
