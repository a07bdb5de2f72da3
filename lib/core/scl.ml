(** SCL — the Structured Coordination Language of Darlington, Guo, To &
    Yang (PPoPP 1995) as an OCaml combinator library.

    Parallel programs are built by composing sequential functions with
    three groups of skeletons:

    - {b Configuration skeletons} ({!Partition}, {!Partition2}, {!Config}):
      partition, align, distribution, redistribution, gather, split,
      combine.
    - {b Elementary skeletons} ({!Elementary}, {!Communication},
      {!Par_array2}): map, imap, fold, scan; rotate, rotate_row,
      rotate_col, brdcast, applybrdcast, send, fetch.
    - {b Computational skeletons} ({!Computational}): farm, SPMD,
      iterUntil, iterFor.

    Every skeleton takes an optional {!Exec.t} backend: {!Exec.sequential}
    (the defining semantics) or {!Exec.on_pool} (multicore). The simulated
    distributed-memory implementations live in the separate [scl_sim]
    library. *)

module Exec = Exec

module Par_array = Par_array

module Flat = Flat
module Flat_exec = Flat_exec
module Par_array2 = Par_array2
module Partition = Partition
module Partition2 = Partition2
module Config = Config
module Elementary = Elementary
module Communication = Communication
module Computational = Computational
module Nested = Nested

(* Flat aliases for the most common entry points, so quickstart code reads
   like the paper. *)

let map = Elementary.map
let imap = Elementary.imap
let fold = Elementary.fold
let scan = Elementary.scan
let map_fold = Elementary.map_fold
let map_scan = Elementary.map_scan
let map_compose = Elementary.map_compose
let rotate = Communication.rotate
let brdcast = Communication.brdcast
let applybrdcast = Communication.applybrdcast
let send = Communication.send
let fetch = Communication.fetch
let farm = Computational.farm
let spmd = Computational.spmd
let iter_until = Computational.iter_until
let iter_for = Computational.iter_for
let partition = Partition.apply
let gather = Config.gather
let align = Config.align
let split = Partition.split
let combine = Partition.combine
