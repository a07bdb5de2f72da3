(* The skeleton-program AST of Section 4: a point-free pipeline language
   whose nodes are SCL skeletons.  [eval] is the reference interpreter the
   transformation rules are verified against. *)

type expr =
  | Id
  | Compose of expr * expr  (* Compose (f, g): apply g first, then f *)
  | Map of Fn.t
  | Imap of Fn.t2  (* applied to (index, value) *)
  | Fold of Fn.t2
  | Scan of Fn.t2
  | Foldr_compose of Fn.t2 * Fn.t
      (* foldr (f . g): the sequential pattern the map-distribution rule
         parallelises into Fold f . Map g *)
  | Send of Fn.ifn  (* permutation send *)
  | Fetch of Fn.ifn
  | Rotate of int
  | Split of int  (* block-split a ParArray into p groups *)
  | Combine  (* flatten a nested ParArray *)
  | Map_nested of expr  (* apply a skeleton program inside each group *)
  | Iter_for of int * expr

(* --- pretty printing ------------------------------------------------------- *)

let rec pp ppf = function
  | Id -> Fmt.string ppf "id"
  | Compose (f, g) -> Fmt.pf ppf "%a . %a" pp f pp g
  | Map f -> Fmt.pf ppf "map %s" f.Fn.name
  | Imap f -> Fmt.pf ppf "imap %s" f.Fn.name2
  | Fold f -> Fmt.pf ppf "fold %s" f.Fn.name2
  | Scan f -> Fmt.pf ppf "scan %s" f.Fn.name2
  | Foldr_compose (f, g) -> Fmt.pf ppf "foldr (%s . %s)" f.Fn.name2 g.Fn.name
  | Send f -> Fmt.pf ppf "send %s" f.Fn.iname
  | Fetch f -> Fmt.pf ppf "fetch %s" f.Fn.iname
  | Rotate k -> Fmt.pf ppf "rotate %d" k
  | Split p -> Fmt.pf ppf "split %d" p
  | Combine -> Fmt.string ppf "combine"
  | Map_nested e -> Fmt.pf ppf "mapn [ %a ]" pp e
  | Iter_for (k, e) -> Fmt.pf ppf "iter %d [ %a ]" k pp e

let to_string e = Fmt.str "%a" pp e

(* --- chain view: a pipeline in application order -------------------------- *)

(* [to_chain e] flattens compositions into the list of stages in application
   order (first stage first); [of_chain] rebuilds. Rules work on chains so
   adjacent-stage patterns are easy to match. *)
let rec to_chain = function
  | Id -> []
  | Compose (f, g) -> to_chain g @ to_chain f
  | e -> [ e ]

let of_chain = function
  | [] -> Id
  | first :: rest -> List.fold_left (fun acc e -> Compose (e, acc)) first rest

(* --- structural size (for termination / reporting) ------------------------ *)

let rec size = function
  | Id -> 1
  | Compose (f, g) -> size f + size g
  | Map_nested e -> 1 + size e
  | Iter_for (_, e) -> 1 + size e
  | Map _ | Imap _ | Fold _ | Scan _ | Foldr_compose _ | Send _ | Fetch _ | Rotate _ | Split _
  | Combine ->
      1

(* --- interpreter ----------------------------------------------------------- *)

let block_bounds ~total ~parts = Scl.Partition.block_bounds ~n:total ~p:parts

let rec eval (e : expr) (v : Value.t) : Value.t =
  match e with
  | Id -> v
  | Compose (f, g) -> eval f (eval g v)
  | Map f -> Value.Arr (Array.map f.Fn.apply (Value.as_arr v))
  | Imap f ->
      Value.Arr (Array.mapi (fun i x -> f.Fn.apply2 (Value.Int i) x) (Value.as_arr v))
  | Fold f ->
      let a = Value.as_arr v in
      if Array.length a = 0 then Value.type_error "fold: empty array";
      let acc = ref a.(0) in
      for i = 1 to Array.length a - 1 do
        acc := f.Fn.apply2 !acc a.(i)
      done;
      !acc
  | Scan f ->
      let a = Value.as_arr v in
      if Array.length a = 0 then Value.Arr [||]
      else begin
        let out = Array.make (Array.length a) a.(0) in
        for i = 1 to Array.length a - 1 do
          out.(i) <- f.Fn.apply2 out.(i - 1) a.(i)
        done;
        Value.Arr out
      end
  | Foldr_compose (f, g) ->
      let a = Value.as_arr v in
      if Array.length a = 0 then Value.type_error "foldr: empty array";
      let acc = ref (g.Fn.apply a.(Array.length a - 1)) in
      for i = Array.length a - 2 downto 0 do
        acc := f.Fn.apply2 (g.Fn.apply a.(i)) !acc
      done;
      !acc
  | Send f ->
      let a = Value.as_arr v in
      let n = Array.length a in
      if n = 0 then v
      else begin
        let out = Array.make n a.(0) in
        let hit = Array.make n false in
        Array.iteri
          (fun i x ->
            let d = f.Fn.iapply ~n i in
            if d < 0 || d >= n then Value.type_error "send %s: destination out of range" f.Fn.iname;
            if hit.(d) then Value.type_error "send %s: not a permutation" f.Fn.iname;
            hit.(d) <- true;
            out.(d) <- x)
          a;
        Value.Arr out
      end
  | Fetch f ->
      let a = Value.as_arr v in
      let n = Array.length a in
      Value.Arr
        (Array.init n (fun i ->
             let s = f.Fn.iapply ~n i in
             if s < 0 || s >= n then Value.type_error "fetch %s: source out of range" f.Fn.iname;
             a.(s)))
  | Rotate k ->
      let a = Value.as_arr v in
      let n = Array.length a in
      if n = 0 then v else Value.Arr (Array.init n (fun i -> a.((((i + k) mod n) + n) mod n)))
  | Split p ->
      if p <= 0 then Value.type_error "split: non-positive part count";
      let a = Value.as_arr v in
      let b = block_bounds ~total:(Array.length a) ~parts:p in
      Value.Arr (Array.init p (fun k -> Value.Arr (Array.sub a b.(k) (b.(k + 1) - b.(k)))))
  | Combine ->
      let groups = Value.as_arr v in
      Value.Arr (Array.concat (Array.to_list (Array.map Value.as_arr groups)))
  | Map_nested e -> Value.Arr (Array.map (eval e) (Value.as_arr v))
  | Iter_for (k, body) ->
      if k < 0 then Value.type_error "iterFor: negative count";
      let acc = ref v in
      for _ = 1 to k do
        acc := eval body !acc
      done;
      !acc
