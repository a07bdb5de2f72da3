(* Interconnect topologies and their hop metrics.

   The simulator only needs a distance function (number of hops between two
   processors) plus validity and neighbourhood queries; routing is assumed
   minimal and contention-free (documented limitation, see DESIGN.md). *)

type t =
  | Hypercube
  | Torus2d of int * int  (* rows, cols; wrap-around links, like the AP1000 T-net *)
  | Mesh2d of int * int  (* rows, cols; no wrap-around *)
  | Ring
  | Complete
  | Star  (* all traffic through processor 0 *)

let to_string = function
  | Hypercube -> "hypercube"
  | Torus2d (r, c) -> Printf.sprintf "torus-%dx%d" r c
  | Mesh2d (r, c) -> Printf.sprintf "mesh-%dx%d" r c
  | Ring -> "ring"
  | Complete -> "complete"
  | Star -> "star"

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let default procs = if is_power_of_two procs then Hypercube else Complete

let log2_exact n =
  if not (is_power_of_two n) then invalid_arg "Topology.log2_exact: not a power of two";
  let rec go acc n = if n = 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let popcount x =
  let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
  go 0 x

let validate t ~procs =
  if procs <= 0 then invalid_arg "Topology.validate: procs must be positive";
  match t with
  | Hypercube ->
      if not (is_power_of_two procs) then
        invalid_arg
          (Printf.sprintf "Topology.validate: hypercube needs a power-of-two size, got %d" procs)
  | Torus2d (r, c) | Mesh2d (r, c) ->
      if r <= 0 || c <= 0 || r * c <> procs then
        invalid_arg
          (Printf.sprintf "Topology.validate: %dx%d grid does not hold %d processors" r c procs)
  | Ring | Complete | Star -> ()

let check_rank ~procs rank name =
  if rank < 0 || rank >= procs then
    invalid_arg (Printf.sprintf "Topology.%s: rank %d out of range [0,%d)" name rank procs)

let grid_coords ~cols rank = (rank / cols, rank mod cols)

let ring_distance n a b =
  let d = abs (a - b) in
  min d (n - d)

let hops t ~procs ~src ~dest =
  check_rank ~procs src "hops";
  check_rank ~procs dest "hops";
  if src = dest then 0
  else
    match t with
    | Hypercube -> popcount (src lxor dest)
    | Torus2d (_, c) ->
        let r1, c1 = grid_coords ~cols:c src and r2, c2 = grid_coords ~cols:c dest in
        ring_distance (procs / c) r1 r2 + ring_distance c c1 c2
    | Mesh2d (_, c) ->
        let r1, c1 = grid_coords ~cols:c src and r2, c2 = grid_coords ~cols:c dest in
        abs (r1 - r2) + abs (c1 - c2)
    | Ring -> ring_distance procs src dest
    | Complete -> 1
    | Star -> if src = 0 || dest = 0 then 1 else 2

let neighbors t ~procs rank =
  check_rank ~procs rank "neighbors";
  match t with
  | Hypercube ->
      List.init (log2_exact procs) (fun k -> rank lxor (1 lsl k))
  | Torus2d (r, c) ->
      let row, col = grid_coords ~cols:c rank in
      let wrap n x = ((x mod n) + n) mod n in
      let coord rr cc = (wrap r rr * c) + wrap c cc in
      List.sort_uniq compare
        (List.filter (( <> ) rank)
           [ coord (row - 1) col; coord (row + 1) col; coord row (col - 1); coord row (col + 1) ])
  | Mesh2d (r, c) ->
      let row, col = grid_coords ~cols:c rank in
      let cands = [ (row - 1, col); (row + 1, col); (row, col - 1); (row, col + 1) ] in
      List.filter_map
        (fun (rr, cc) -> if rr >= 0 && rr < r && cc >= 0 && cc < c then Some ((rr * c) + cc) else None)
        cands
  | Ring ->
      if procs = 1 then []
      else if procs = 2 then [ 1 - rank ]
      else [ (rank + procs - 1) mod procs; (rank + 1) mod procs ]
  | Complete -> List.filter (( <> ) rank) (List.init procs Fun.id)
  | Star -> if rank = 0 then List.init (procs - 1) (fun i -> i + 1) else [ 0 ]

let diameter t ~procs =
  match t with
  | Hypercube -> log2_exact procs
  | Torus2d (r, c) -> (r / 2) + (c / 2)
  | Mesh2d (r, c) -> r - 1 + (c - 1)
  | Ring -> procs / 2
  | Complete -> if procs > 1 then 1 else 0
  | Star -> if procs > 2 then 2 else if procs = 2 then 1 else 0
