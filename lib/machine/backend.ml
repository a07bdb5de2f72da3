(* The engine choice as a value, indexed by the engine's stats record. *)

type _ t =
  | Sim : { cost : Cost_model.t; trace : Trace.t option } -> Sim.stats t
  | Multicore : { domains : int option } -> Multicore.stats t
  | Procs : Procs.stats t

let sim ?(cost = Cost_model.ap1000) ?trace () = Sim { cost; trace }
let multicore ?domains () = Multicore { domains }
let procs = Procs

let name : type s. s t -> string = function
  | Sim _ -> "sim"
  | Multicore _ -> "multicore"
  | Procs -> "procs"
