(** Interconnect topologies and hop metrics for the simulated machine.

    Routing is assumed minimal and contention-free: the simulator charges
    per-hop wire latency but does not model link contention. *)

type t =
  | Hypercube  (** requires a power-of-two processor count *)
  | Torus2d of int * int  (** rows × cols with wrap-around (AP1000-style) *)
  | Mesh2d of int * int  (** rows × cols, no wrap-around *)
  | Ring
  | Complete  (** direct link between every pair *)
  | Star  (** all traffic relayed through processor 0 *)

val to_string : t -> string

val validate : t -> procs:int -> unit
(** @raise Invalid_argument if [procs] does not fit the topology. *)

val hops : t -> procs:int -> src:int -> dest:int -> int
(** Minimal-path hop count; 0 when [src = dest]. *)

val neighbors : t -> procs:int -> int -> int list
(** Directly connected ranks. *)

val diameter : t -> procs:int -> int

val is_power_of_two : int -> bool

val default : int -> t
(** Hypercube when the processor count is a power of two, else complete —
    the topology every runner uses when none is given. *)

val log2_exact : int -> int
(** @raise Invalid_argument if the argument is not a power of two. *)

val popcount : int -> int
