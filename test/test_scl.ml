(* Tests for the SCL core library: ParArrays, partitions, configurations,
   elementary / communication / computational skeletons, on both the
   sequential and the pool backends. *)

open Scl

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let int_par = Alcotest.testable (Par_array.pp Fmt.int) (Par_array.equal ( = ))

(* A pool shared by the whole suite (spawning domains per test is slow). *)
let pool = lazy (Runtime.Pool.create ~num_domains:3 ())
let pexec = lazy (Exec.on_pool (Lazy.force pool))

let both_execs f () =
  f Exec.sequential;
  f (Lazy.force pexec)

(* --- Par_array ------------------------------------------------------------ *)

let test_par_array_basics () =
  let pa = Par_array.init 5 (fun i -> i * i) in
  Alcotest.(check int) "length" 5 (Par_array.length pa);
  Alcotest.(check int) "get" 9 (Par_array.get pa 3);
  let pa' = Par_array.set pa 0 42 in
  Alcotest.(check int) "set is functional" 0 (Par_array.get pa 0);
  Alcotest.(check int) "set" 42 (Par_array.get pa' 0)

let test_par_array_bounds () =
  let pa = Par_array.init 3 Fun.id in
  Alcotest.(check bool) "get oob raises" true
    (try
       ignore (Par_array.get pa 3);
       false
     with Invalid_argument _ -> true)

let test_par_array_of_array_copies () =
  let a = [| 1; 2; 3 |] in
  let pa = Par_array.of_array a in
  a.(0) <- 99;
  Alcotest.(check int) "insulated from mutation" 1 (Par_array.get pa 0)

let test_par_array_concat_sub () =
  let a = Par_array.of_list [ 1; 2 ] and b = Par_array.of_list [ 3 ] in
  let c = Par_array.concat [ a; b ] in
  Alcotest.(check (list int)) "concat" [ 1; 2; 3 ] (Par_array.to_list c);
  Alcotest.(check (list int)) "sub" [ 2; 3 ] (Par_array.to_list (Par_array.sub c ~pos:1 ~len:2))

let test_par_array_sub_view () =
  let pa = Par_array.init 6 Fun.id in
  let v = Par_array.sub_view pa ~pos:2 ~len:3 in
  Alcotest.(check (list int)) "view contents" [ 2; 3; 4 ] (Par_array.to_list v);
  Alcotest.(check bool) "view = copying sub" true
    (Par_array.equal ( = ) v (Par_array.sub pa ~pos:2 ~len:3));
  let vv = Par_array.sub_view v ~pos:1 ~len:2 in
  Alcotest.(check (list int)) "view of a view" [ 3; 4 ] (Par_array.to_list vv);
  Alcotest.(check bool) "oob view rejected" true
    (try
       ignore (Par_array.sub_view pa ~pos:4 ~len:3);
       false
     with Invalid_argument _ -> true)

(* --- Partition -------------------------------------------------------------- *)

let patterns_for n =
  [
    Partition.Block 1;
    Partition.Block 3;
    Partition.Block 7;
    Partition.Cyclic 3;
    Partition.Cyclic 5;
    Partition.Block_cyclic { parts = 3; block = 2 };
    Partition.Custom { parts = 4; name = "mod-ish"; assign = (fun i -> i * i mod 4) };
  ]
  |> List.filter (fun p -> Partition.parts p <= max 1 n || true)

let prop_partition_roundtrip =
  qtest "unapply (apply pat a) = a for every pattern"
    QCheck.(list small_int)
    (fun xs ->
      let a = Array.of_list xs in
      List.for_all
        (fun pat -> Partition.unapply pat (Partition.apply pat a) = a)
        (patterns_for (Array.length a)))

let test_partition_block_sizes () =
  let sizes = Partition.part_sizes (Partition.Block 4) ~n:10 in
  Alcotest.(check (array int)) "balanced" [| 3; 3; 2; 2 |] sizes

let test_partition_block_contents () =
  let pieces = Partition.apply (Partition.Block 3) [| 0; 1; 2; 3; 4; 5; 6 |] in
  Alcotest.(check (array int)) "part 0" [| 0; 1; 2 |] (Par_array.get pieces 0);
  Alcotest.(check (array int)) "part 1" [| 3; 4 |] (Par_array.get pieces 1);
  Alcotest.(check (array int)) "part 2" [| 5; 6 |] (Par_array.get pieces 2)

let test_partition_cyclic_contents () =
  let pieces = Partition.apply (Partition.Cyclic 3) [| 0; 1; 2; 3; 4; 5; 6 |] in
  Alcotest.(check (array int)) "part 0" [| 0; 3; 6 |] (Par_array.get pieces 0);
  Alcotest.(check (array int)) "part 1" [| 1; 4 |] (Par_array.get pieces 1)

let test_partition_block_cyclic () =
  let pat = Partition.Block_cyclic { parts = 2; block = 2 } in
  let pieces = Partition.apply pat [| 0; 1; 2; 3; 4; 5; 6; 7 |] in
  Alcotest.(check (array int)) "part 0" [| 0; 1; 4; 5 |] (Par_array.get pieces 0);
  Alcotest.(check (array int)) "part 1" [| 2; 3; 6; 7 |] (Par_array.get pieces 1)

let test_partition_more_parts_than_elements () =
  let pieces = Partition.apply (Partition.Block 5) [| 1; 2 |] in
  Alcotest.(check int) "five parts" 5 (Par_array.length pieces);
  Alcotest.(check (array int)) "roundtrip" [| 1; 2 |]
    (Partition.unapply (Partition.Block 5) pieces)

let test_partition_invalid () =
  Alcotest.(check bool) "0 parts rejected" true
    (try
       ignore (Partition.apply (Partition.Block 0) [| 1 |]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad custom assign rejected" true
    (try
       ignore
         (Partition.apply (Partition.Custom { parts = 2; name = "bad"; assign = (fun _ -> 7) }) [| 1 |]);
       false
     with Invalid_argument _ -> true)

let test_partition_unapply_inconsistent () =
  let pieces = Par_array.of_list [ [| 1 |]; [| 2; 3; 4 |] ] in
  Alcotest.(check bool) "inconsistent sizes rejected" true
    (try
       ignore (Partition.unapply (Partition.Cyclic 2) pieces);
       false
     with Invalid_argument _ -> true)

(* The specialised apply/unapply fast paths must agree with the generic
   assign-driven implementation (the executable specification) on every
   pattern and length, including empty arrays and n < parts. *)
let prop_partition_fastpath =
  qtest "fast-path apply/unapply = generic"
    QCheck.(list small_int)
    (fun xs ->
      let a = Array.of_list xs in
      List.for_all
        (fun pat ->
          let fast = Partition.apply pat a and generic = Partition.apply_generic pat a in
          Par_array.equal ( = ) fast generic
          && Partition.unapply pat generic = a
          && Partition.unapply_generic pat fast = a)
        (patterns_for (Array.length a)))

(* [block_bounds] is the geometry [Comm.scatter_slice] and [Exec]'s
   chunked reduce cut by; its ranges must be exactly the parts the
   assign-driven [apply_generic (Block p)] makes, with [part_sizes] as
   their lengths. *)
let prop_block_bounds_delimit_block_parts =
  qtest "block_bounds delimits apply (Block p)"
    QCheck.(pair (list small_int) (int_range 1 9))
    (fun (xs, p) ->
      let a = Array.of_list xs in
      let n = Array.length a in
      let b = Partition.block_bounds ~n ~p in
      let pieces = Partition.apply_generic (Partition.Block p) a in
      Array.length b = p + 1
      && b.(0) = 0
      && b.(p) = n
      && Partition.part_sizes (Partition.Block p) ~n = Array.init p (fun k -> b.(k + 1) - b.(k))
      && List.for_all
           (fun k -> Array.sub a b.(k) (b.(k + 1) - b.(k)) = Par_array.get pieces k)
           (List.init p Fun.id))

let test_partition_fastpath_small_sizes () =
  let pats =
    [
      Partition.Block 7;
      Partition.Cyclic 7;
      Partition.Block_cyclic { parts = 7; block = 2 };
      Partition.Block_cyclic { parts = 3; block = 3 };
    ]
  in
  for n = 0 to 6 do
    let a = Array.init n (fun i -> (i * 3) + 1) in
    List.iter
      (fun pat ->
        let who = Printf.sprintf "%s n=%d" (Partition.name pat) n in
        let fast = Partition.apply pat a and generic = Partition.apply_generic pat a in
        Alcotest.(check bool) (who ^ " apply") true (Par_array.equal ( = ) fast generic);
        Alcotest.(check (array int)) (who ^ " unapply") a (Partition.unapply pat fast))
      pats
  done

let prop_split_combine =
  qtest "combine (split p x) = x (block patterns)"
    QCheck.(pair (list small_int) (int_range 1 6))
    (fun (xs, p) ->
      let pa = Par_array.of_list xs in
      Par_array.equal ( = ) (Partition.combine (Partition.split (Partition.Block p) pa)) pa)

(* --- Partition2 -------------------------------------------------------------- *)

let mk_matrix r c = Par_array2.init ~rows:r ~cols:c (fun i j -> (i * 100) + j)

let prop_partition2_roundtrip =
  qtest ~count:100 "2-D unapply (apply pat m) = m"
    QCheck.(triple (int_range 0 9) (int_range 0 9) (int_range 0 4))
    (fun (r, c, which) ->
      let pat =
        match which with
        | 0 -> Partition2.row_block 3
        | 1 -> Partition2.col_block 2
        | 2 -> Partition2.row_col_block 2 3
        | 3 -> Partition2.row_cyclic 2
        | _ -> Partition2.col_cyclic 3
      in
      let m = mk_matrix r c in
      Par_array2.equal ( = ) (Partition2.unapply pat (Partition2.apply pat m)) m)

let test_partition2_row_block_shape () =
  let m = mk_matrix 4 6 in
  let grid = Partition2.apply (Partition2.row_block 2) m in
  Alcotest.(check (pair int int)) "grid" (2, 1) (Par_array2.dims grid);
  let piece = Par_array2.get grid 0 0 in
  Alcotest.(check (pair int int)) "piece" (2, 6) (Par_array2.dims piece)

let test_partition2_row_col_block_shape () =
  let m = mk_matrix 4 4 in
  let grid = Partition2.apply (Partition2.row_col_block 2 2) m in
  Alcotest.(check (pair int int)) "grid" (2, 2) (Par_array2.dims grid);
  Alcotest.(check int) "corner element" 202 (Par_array2.get (Par_array2.get grid 1 1) 0 0)

(* --- Par_array2 skeletons ------------------------------------------------- *)

let test_par_array2_imap_fold () =
  let m = Par_array2.init ~rows:3 ~cols:4 (fun i j -> i + j) in
  let m2 = Par_array2.imap (fun i j v -> v + (i * 10) + j) m in
  Alcotest.(check int) "imap" (2 + 3 + 20 + 3) (Par_array2.get m2 2 3);
  Alcotest.(check int) "fold sum" 30 (Par_array2.fold ( + ) m)

let test_par_array2_transpose () =
  let m = mk_matrix 2 3 in
  let t = Par_array2.transpose m in
  Alcotest.(check (pair int int)) "dims" (3, 2) (Par_array2.dims t);
  Alcotest.(check int) "value" 102 (Par_array2.get t 2 1)

let test_rotate_row () =
  let m = mk_matrix 2 4 in
  (* row i rotated left by i *)
  let r = Par_array2.rotate_row (fun i -> i) m in
  Alcotest.(check (array int)) "row 0 unchanged" [| 0; 1; 2; 3 |] (Par_array2.row r 0);
  Alcotest.(check (array int)) "row 1 left by 1" [| 101; 102; 103; 100 |] (Par_array2.row r 1)

let test_rotate_col () =
  let m = mk_matrix 4 2 in
  let r = Par_array2.rotate_col (fun j -> j) m in
  Alcotest.(check (array int)) "col 0 unchanged" [| 0; 100; 200; 300 |] (Par_array2.col r 0);
  Alcotest.(check (array int)) "col 1 up by 1" [| 101; 201; 301; 1 |] (Par_array2.col r 1)

let prop_rotate_row_inverse =
  qtest ~count:100 "rotate_row df then -df = id"
    QCheck.(triple (int_range 1 6) (int_range 1 6) (int_range (-5) 5))
    (fun (r, c, k) ->
      let m = mk_matrix r c in
      let df i = (i * k) mod 7 in
      Par_array2.equal ( = )
        (Par_array2.rotate_row (fun i -> -df i) (Par_array2.rotate_row df m))
        m)

(* --- Config ------------------------------------------------------------------ *)

let test_align_unalign () =
  let a = Par_array.of_list [ 1; 2; 3 ] and b = Par_array.of_list [ "x"; "y"; "z" ] in
  let ab = Config.align a b in
  Alcotest.(check (pair int string)) "pairing" (2, "y") (Par_array.get ab 1);
  let a', b' = Config.unalign ab in
  Alcotest.check int_par "left back" a a';
  Alcotest.(check (list string)) "right back" [ "x"; "y"; "z" ] (Par_array.to_list b')

let test_align_mismatch () =
  Alcotest.(check bool) "length mismatch" true
    (try
       ignore (Config.align (Par_array.of_list [ 1 ]) (Par_array.of_list [ 1; 2 ]));
       false
     with Invalid_argument _ -> true)

let test_distribution2 () =
  let conf =
    Config.distribution2 ~move1:Fun.id ~pat1:(Partition.Block 2) ~move2:Fun.id
      ~pat2:(Partition.Cyclic 2) [| 1; 2; 3; 4 |] [| 10; 20; 30; 40 |]
  in
  Alcotest.(check int) "two tuples" 2 (Par_array.length conf);
  let a0, b0 = Par_array.get conf 0 in
  Alcotest.(check (array int)) "block part" [| 1; 2 |] a0;
  Alcotest.(check (array int)) "cyclic part" [| 10; 30 |] b0

let test_distribution2_with_movement () =
  (* A bulk movement (rotate) applied as part of the distribution. *)
  let conf =
    Config.distribution2
      ~move1:(fun da -> Communication.rotate 1 da)
      ~pat1:(Partition.Block 2) ~move2:Fun.id ~pat2:(Partition.Block 2) [| 1; 2; 3; 4 |]
      [| 10; 20; 30; 40 |]
  in
  let a0, _ = Par_array.get conf 0 in
  Alcotest.(check (array int)) "rotated pieces" [| 3; 4 |] a0

let test_redistribution () =
  let da = Par_array.of_list [ 1; 2 ] and db = Par_array.of_list [ 3; 4 ] in
  let da', db' =
    Config.redistribution2 (Communication.rotate 1, Communication.rotate (-1)) (da, db)
  in
  Alcotest.(check (list int)) "left rotated" [ 2; 1 ] (Par_array.to_list da');
  Alcotest.(check (list int)) "right rotated" [ 4; 3 ] (Par_array.to_list db')

let test_gather_is_partition_inverse () =
  let a = Array.init 13 Fun.id in
  let pat = Partition.Cyclic 4 in
  Alcotest.(check (array int)) "gather" a (Config.gather pat (Partition.apply pat a))

(* --- Elementary --------------------------------------------------------------- *)

let test_map_both = both_execs (fun exec ->
    let pa = Par_array.init 100 Fun.id in
    let r = Elementary.map ~exec (fun x -> x * 2) pa in
    Alcotest.(check bool) (exec.Exec.name ^ " map") true
      (Par_array.equal ( = ) r (Par_array.init 100 (fun i -> 2 * i))))

let test_imap_both = both_execs (fun exec ->
    let pa = Par_array.make 10 5 in
    let r = Elementary.imap ~exec (fun i x -> i * x) pa in
    Alcotest.(check bool) (exec.Exec.name ^ " imap") true
      (Par_array.equal ( = ) r (Par_array.init 10 (fun i -> 5 * i))))

let test_fold_both = both_execs (fun exec ->
    let pa = Par_array.init 1000 (fun i -> i + 1) in
    Alcotest.(check int) (exec.Exec.name ^ " fold") 500500 (Elementary.fold ~exec ( + ) pa))

let test_fold_non_commutative = both_execs (fun exec ->
    (* String concatenation: checks combination order. *)
    let pa = Par_array.init 50 string_of_int in
    let expect = String.concat "" (List.init 50 string_of_int) in
    Alcotest.(check string) (exec.Exec.name ^ " ordered fold") expect
      (Elementary.fold ~exec ( ^ ) pa))

let test_fold_empty () =
  Alcotest.(check bool) "empty fold raises" true
    (try
       ignore (Elementary.fold ( + ) (Par_array.of_array [||]));
       false
     with Invalid_argument _ -> true)

let test_scan_both = both_execs (fun exec ->
    let pa = Par_array.init 100 (fun i -> i + 1) in
    let r = Elementary.scan ~exec ( + ) pa in
    let expect = Par_array.init 100 (fun i -> (i + 1) * (i + 2) / 2) in
    Alcotest.(check bool) (exec.Exec.name ^ " scan") true (Par_array.equal ( = ) r expect))

let prop_scan_matches_seq =
  qtest "pool scan = sequential scan (non-commutative op)"
    QCheck.(list_of_size (QCheck.Gen.int_range 0 500) small_string)
    (fun xs ->
      let pa = Par_array.of_list xs in
      let s1 = Elementary.scan ( ^ ) pa in
      let s2 = Elementary.scan ~exec:(Lazy.force pexec) ( ^ ) pa in
      Par_array.equal ( = ) s1 s2)

let test_scan_exclusive () =
  let pa = Par_array.of_list [ 1; 2; 3 ] in
  let r = Elementary.scan_exclusive ( + ) 0 pa in
  Alcotest.(check (list int)) "exclusive" [ 0; 1; 3 ] (Par_array.to_list r)

let test_zip_with () =
  let a = Par_array.of_list [ 1; 2; 3 ] and b = Par_array.of_list [ 10; 20; 30 ] in
  Alcotest.(check (list int)) "zip" [ 11; 22; 33 ]
    (Par_array.to_list (Elementary.zip_with ( + ) a b))

(* --- Communication ------------------------------------------------------------- *)

let test_rotate () =
  let pa = Par_array.of_list [ 0; 1; 2; 3; 4 ] in
  Alcotest.(check (list int)) "left by 2" [ 2; 3; 4; 0; 1 ]
    (Par_array.to_list (Communication.rotate 2 pa));
  Alcotest.(check (list int)) "right by 1" [ 4; 0; 1; 2; 3 ]
    (Par_array.to_list (Communication.rotate (-1) pa))

let prop_rotate_compose =
  qtest "rotate a . rotate b = rotate (a+b)"
    QCheck.(triple (list small_int) (int_range (-10) 10) (int_range (-10) 10))
    (fun (xs, a, b) ->
      let pa = Par_array.of_list xs in
      Par_array.equal ( = )
        (Communication.rotate a (Communication.rotate b pa))
        (Communication.rotate (a + b) pa))

let prop_rotate_identity =
  qtest "rotate 0 = id and rotate n = id"
    QCheck.(list small_int)
    (fun xs ->
      let pa = Par_array.of_list xs in
      Par_array.equal ( = ) (Communication.rotate 0 pa) pa
      && Par_array.equal ( = ) (Communication.rotate (List.length xs) pa) pa)

let test_brdcast () =
  let pa = Par_array.of_list [ 10; 20 ] in
  let r = Communication.brdcast 7 pa in
  Alcotest.(check (list (pair int int))) "paired" [ (7, 10); (7, 20) ] (Par_array.to_list r)

let test_applybrdcast () =
  let pa = Par_array.of_list [ 10; 20; 30 ] in
  let r = Communication.applybrdcast (fun x -> x + 1) 2 pa in
  Alcotest.(check (list (pair int int))) "applied and broadcast"
    [ (31, 10); (31, 20); (31, 30) ]
    (Par_array.to_list r)

let test_fetch () =
  let pa = Par_array.of_list [ 0; 10; 20; 30 ] in
  let r = Communication.fetch (fun i -> (i + 1) mod 4) pa in
  Alcotest.(check (list int)) "fetched" [ 10; 20; 30; 0 ] (Par_array.to_list r)

let test_fetch_one_to_many () =
  let pa = Par_array.of_list [ 5; 6; 7 ] in
  let r = Communication.fetch (fun _ -> 0) pa in
  Alcotest.(check (list int)) "all from source 0" [ 5; 5; 5 ] (Par_array.to_list r)

let prop_fetch_compose =
  qtest "fetch f . fetch g = fetch (g . f)"
    QCheck.(pair (int_range 1 20) (pair (int_range 0 100) (int_range 0 100)))
    (fun (n, (ka, kb)) ->
      let pa = Par_array.init n (fun i -> i * 3) in
      let f i = (i + ka) mod n and g i = (i * (1 + (kb mod 3))) mod n in
      let lhs = Communication.fetch f (Communication.fetch g pa) in
      let rhs = Communication.fetch (fun i -> g (f i)) pa in
      Par_array.equal ( = ) lhs rhs)

let test_send_many_to_one () =
  let pa = Par_array.of_list [ 1; 2; 3; 4 ] in
  let r = Communication.send (fun k -> [ k / 2 ]) pa in
  Alcotest.(check (array int)) "site 0" [| 1; 2 |] (Par_array.get r 0);
  Alcotest.(check (array int)) "site 1" [| 3; 4 |] (Par_array.get r 1);
  Alcotest.(check (array int)) "site 2 empty" [||] (Par_array.get r 2)

let test_send_one_to_many () =
  let pa = Par_array.of_list [ 1; 2 ] in
  let r = Communication.send (fun k -> if k = 0 then [ 0; 1 ] else []) pa in
  Alcotest.(check (array int)) "duplicated" [| 1 |] (Par_array.get r 0);
  Alcotest.(check (array int)) "second copy" [| 1 |] (Par_array.get r 1)

let prop_send_one_compose =
  qtest "send_one f . send_one g = send_one (f . g) (permutations)"
    QCheck.(pair (int_range 1 20) (pair (int_range 0 19) (int_range 0 19)))
    (fun (n, (ka, kb)) ->
      let pa = Par_array.init n (fun i -> i) in
      let f i = (i + ka) mod n and g i = (i + kb) mod n in
      let lhs = Communication.send_one f (Communication.send_one g pa) in
      let rhs = Communication.send_one (fun k -> f (g k)) pa in
      Par_array.equal ( = ) lhs rhs)

let test_send_one_rejects_collision () =
  Alcotest.(check bool) "non-injective rejected" true
    (try
       ignore (Communication.send_one (fun _ -> 0) (Par_array.of_list [ 1; 2 ]));
       false
     with Invalid_argument _ -> true)

let test_all_to_all () =
  let pa = Par_array.of_list [ 1; 2; 3 ] in
  let r = Communication.all_to_all pa in
  Alcotest.(check (array int)) "everyone has everything" [| 1; 2; 3 |] (Par_array.get r 1)

(* --- Computational ---------------------------------------------------------------- *)

let test_farm = both_execs (fun exec ->
    let jobs = Par_array.init 20 Fun.id in
    let r = Computational.farm ~exec (fun env x -> (env * x) + 1) 10 jobs in
    Alcotest.(check bool) (exec.Exec.name ^ " farm") true
      (Par_array.equal ( = ) r (Par_array.init 20 (fun i -> (10 * i) + 1))))

let test_farm_is_map () =
  let jobs = Par_array.init 9 Fun.id in
  let f env x = env + (x * x) in
  Alcotest.(check bool) "farm f env = map (f env)" true
    (Par_array.equal ( = )
       (Computational.farm f 3 jobs)
       (Elementary.map (f 3) jobs))

let test_farm_dynamic () =
  let jobs = Par_array.init 50 Fun.id in
  let r = Computational.farm_dynamic (Lazy.force pool) (fun env x -> env - x) 100 jobs in
  Alcotest.(check bool) "dynamic farm" true
    (Par_array.equal ( = ) r (Par_array.init 50 (fun i -> 100 - i)))

let test_iter_until () =
  let r = Computational.iter_until (fun x -> x * 2) (fun x -> x + 1) (fun x -> x > 100) 3 in
  (* 3 -> 6 -> ... -> 192; final solve adds 1 *)
  Alcotest.(check int) "iterate then finalise" 193 r

let test_iter_until_immediate () =
  let r = Computational.iter_until (fun x -> x + 1) string_of_int (fun _ -> true) 7 in
  Alcotest.(check string) "condition already true" "7" r

let test_iter_for () =
  let r = Computational.iter_for 5 (fun i x -> x + i) 0 in
  Alcotest.(check int) "sum of indices" 10 r;
  Alcotest.(check int) "zero iterations" 42 (Computational.iter_for 0 (fun _ x -> x + 1) 42)

let test_iter_for_negative () =
  Alcotest.(check bool) "negative count rejected" true
    (try
       ignore (Computational.iter_for (-1) (fun _ x -> x) 0);
       false
     with Invalid_argument _ -> true)

let test_spmd_stages () =
  (* Two supersteps: local increment, then a global rotation. *)
  let st =
    Computational.stage
      ~global:(Communication.rotate 1)
      ~local:(fun _ x -> x + 1)
      ()
  in
  let pa = Par_array.of_list [ 10; 20; 30 ] in
  let r = Computational.spmd [ st; st ] pa in
  (* step: +1 then rotate: <21,31,11> ; again: <32,12,22> *)
  Alcotest.(check (list int)) "two supersteps" [ 32; 12; 22 ] (Par_array.to_list r)

let test_spmd_empty_is_id () =
  let pa = Par_array.of_list [ 1; 2 ] in
  Alcotest.(check bool) "SPMD [] = id" true (Par_array.equal ( = ) (Computational.spmd [] pa) pa)

(* --- Config extras --------------------------------------------------------------- *)

let test_align3 () =
  let a = Par_array.of_list [ 1; 2 ]
  and b = Par_array.of_list [ "x"; "y" ]
  and c = Par_array.of_list [ 1.5; 2.5 ] in
  let abc = Config.align3 a b c in
  Alcotest.(check bool) "triple" true (Par_array.get abc 1 = (2, "y", 2.5));
  Alcotest.(check bool) "mismatch raises" true
    (try
       ignore (Config.align3 a b (Par_array.of_list [ 1.0 ]));
       false
     with Invalid_argument _ -> true)

let test_distribution3 () =
  let conf =
    Config.distribution3 ~move1:Fun.id ~pat1:(Partition.Block 2) ~move2:Fun.id
      ~pat2:(Partition.Cyclic 2) ~move3:Fun.id ~pat3:(Partition.Block 2) [| 1; 2; 3; 4 |]
      [| 5; 6; 7; 8 |] [| 9; 10; 11; 12 |]
  in
  let a0, b0, c0 = Par_array.get conf 0 in
  Alcotest.(check (array int)) "block" [| 1; 2 |] a0;
  Alcotest.(check (array int)) "cyclic" [| 5; 7 |] b0;
  Alcotest.(check (array int)) "block again" [| 9; 10 |] c0

let test_distribution_list () =
  let confs =
    Config.distribution_list
      [ (Fun.id, Partition.Block 2); (Fun.id, Partition.Cyclic 2) ]
      [ [| 1; 2; 3 |]; [| 4; 5; 6 |] ]
  in
  Alcotest.(check int) "two configurations" 2 (List.length confs);
  Alcotest.(check bool) "count mismatch raises" true
    (try
       ignore (Config.distribution_list [ (Fun.id, Partition.Block 2) ] []);
       false
     with Invalid_argument _ -> true)

let test_redistribution_list () =
  let rs =
    Config.redistribution_list
      [ Communication.rotate 1; Communication.rotate (-1) ]
      [ Par_array.of_list [ 1; 2; 3 ]; Par_array.of_list [ 4; 5; 6 ] ]
  in
  Alcotest.(check (list (list int))) "componentwise movement"
    [ [ 2; 3; 1 ]; [ 6; 4; 5 ] ]
    (List.map Par_array.to_list rs)

let prop_scan_exclusive_shifts_inclusive =
  qtest "scan_exclusive = unit :: init of scan"
    QCheck.(list small_int)
    (fun xs ->
      let pa = Par_array.of_list xs in
      let inc = Elementary.scan ( + ) pa in
      let exc = Elementary.scan_exclusive ( + ) 0 pa in
      let n = List.length xs in
      let ok = ref true in
      for i = 0 to n - 1 do
        let expect = if i = 0 then 0 else Par_array.get inc (i - 1) in
        if Par_array.get exc i <> expect then ok := false
      done;
      !ok)

let test_fold_with_unit () =
  Alcotest.(check int) "empty gives unit" 42
    (Elementary.fold_with_unit ( + ) 42 (Par_array.of_array [||]));
  Alcotest.(check int) "non-empty folds" 6
    (Elementary.fold_with_unit ( + ) 0 (Par_array.of_list [ 1; 2; 3 ]))

let prop_block_cyclic_balanced =
  qtest "block-cyclic part sizes differ by at most one block"
    QCheck.(triple (int_range 0 100) (int_range 1 6) (int_range 1 5))
    (fun (n, parts, block) ->
      let sizes = Partition.part_sizes (Partition.Block_cyclic { parts; block }) ~n in
      let mx = Array.fold_left max 0 sizes and mn = Array.fold_left min max_int sizes in
      mx - mn <= block)

let test_par_array2_zip_mismatch () =
  let a = Par_array2.init ~rows:2 ~cols:2 (fun _ _ -> 0) in
  let b = Par_array2.init ~rows:2 ~cols:3 (fun _ _ -> 0) in
  Alcotest.(check bool) "shape mismatch raises" true
    (try
       ignore (Par_array2.zip a b);
       false
     with Invalid_argument _ -> true)

let prop_rotate_col_inverse =
  qtest ~count:100 "rotate_col df then -df = id"
    QCheck.(triple (int_range 1 6) (int_range 1 6) (int_range (-5) 5))
    (fun (r, c, k) ->
      let m = mk_matrix r c in
      let df j = (j * k) mod 5 in
      Par_array2.equal ( = )
        (Par_array2.rotate_col (fun j -> -df j) (Par_array2.rotate_col df m))
        m)

(* --- Nested (segmented) operations ------------------------------------------------- *)

(* A nested array as the flat machinery sees it: one flagged element per
   leaf, the flag set on each segment's first element. The segmented
   scan of the SPMD executor is [Elementary.scan] of [Nested.segmented_op]
   over exactly this shape. *)
let gen_nested =
  QCheck.Gen.(list_size (int_range 0 8) (list_size (int_range 0 10) small_int))

let arb_nested =
  QCheck.make
    ~print:QCheck.Print.(list (list int))
    gen_nested

let flagged segs =
  Par_array.of_list (List.concat_map (List.mapi (fun i x -> (i = 0, x))) segs)

let per_segment_scan op segs =
  List.concat_map
    (function
      | [] -> []
      | x :: rest ->
          List.rev (List.fold_left (fun acc y -> op (List.hd acc) y :: acc) [ x ] rest))
    segs

let lifted_scan ?exec op segs =
  List.map snd (Par_array.to_list (Elementary.scan ?exec (Nested.segmented_op op) (flagged segs)))

let prop_segmented_scan_matches_reference =
  qtest "segmented scan (flat machinery) = per-segment scan"
    arb_nested
    (fun segs -> lifted_scan ( + ) segs = per_segment_scan ( + ) segs)

let prop_segmented_scan_pool_backend =
  (* string append is not commutative, so a pool scan that combined
     chunks out of order would show *)
  qtest ~count:60 "segmented scan on the pool backend"
    arb_nested
    (fun segs ->
      let segs = List.map (List.map string_of_int) segs in
      lifted_scan ~exec:(Lazy.force pexec) ( ^ ) segs = per_segment_scan ( ^ ) segs)

let prop_segmented_fold =
  (* a segmented fold is the flat lifted scan read at each segment's last
     element; an empty segment has no element and so no reading *)
  qtest "segmented fold = per-segment sum"
    arb_nested
    (fun segs ->
      let scanned = Array.of_list (lifted_scan ( + ) segs) in
      let ends =
        List.rev
          (snd
             (List.fold_left
                (fun (start, acc) seg ->
                  let n = List.length seg in
                  (start + n, if n = 0 then acc else scanned.(start + n - 1) :: acc))
                (0, []) segs))
      in
      ends
      = List.filter_map
          (function [] -> None | seg -> Some (List.fold_left ( + ) 0 seg))
          segs)

let prop_segmented_op_associative =
  qtest "flag-reset lift preserves associativity"
    QCheck.(triple (pair bool small_int) (pair bool small_int) (pair bool small_int))
    (fun (a, b, c) ->
      let op = Nested.segmented_op ( + ) in
      op (op a b) c = op a (op b c))

let prop_segmented_op_resets =
  qtest "flag-reset lift resets at a segment start"
    QCheck.(triple (pair bool small_int) bool small_int)
    (fun ((fa, a), fb, b) ->
      let op = Nested.segmented_op ( - ) in
      op (fa, a) (fb, b) = if fb then (true, b) else (fa, a - b))

(* --- Fused primitives ------------------------------------------------------------- *)

let test_fused_map_fold =
  both_execs (fun exec ->
      let pa = Par_array.init 101 (fun i -> i - 50) in
      let f x = (2 * x) + 1 in
      Alcotest.(check int)
        ("map_fold = fold.map on " ^ exec.Exec.name)
        (Elementary.fold ~exec ( + ) (Elementary.map ~exec f pa))
        (Elementary.map_fold ~exec ( + ) f pa))

let test_fused_map_scan =
  both_execs (fun exec ->
      let pa = Par_array.init 97 (fun i -> i mod 13) in
      let f x = x * 3 in
      Alcotest.check int_par
        ("map_scan = scan.map on " ^ exec.Exec.name)
        (Elementary.scan ~exec ( + ) (Elementary.map ~exec f pa))
        (Elementary.map_scan ~exec ( + ) f pa))

let test_fused_map_compose =
  both_execs (fun exec ->
      let pa = Par_array.init 50 Fun.id in
      Alcotest.check int_par
        ("map_compose = map.map on " ^ exec.Exec.name)
        (Elementary.map ~exec (fun x -> x + 1) (Elementary.map ~exec (fun x -> x * x) pa))
        (Elementary.map_compose ~exec (fun x -> x + 1) (fun x -> x * x) pa))

(* List append is associative but not commutative: locks the index order of
   the parallel combine. *)
let test_fused_combine_order =
  both_execs (fun exec ->
      let pa = Par_array.init 40 Fun.id in
      Alcotest.(check (list int))
        ("combine order on " ^ exec.Exec.name)
        (List.init 40 Fun.id)
        (Elementary.map_fold ~exec ( @ ) (fun x -> [ x ]) pa))

let test_fused_empty =
  both_execs (fun exec ->
      Alcotest.(check bool) "map_fold empty raises" true
        (try
           ignore (Elementary.map_fold ~exec ( + ) Fun.id (Par_array.of_list []));
           false
         with Invalid_argument _ -> true);
      Alcotest.(check int) "map_scan empty = empty" 0
        (Par_array.length (Elementary.map_scan ~exec ( + ) Fun.id (Par_array.of_list []))))

(* --- Flat (unboxed Bigarray tier) ------------------------------------------------- *)

let test_flat_views_alias () =
  let fa = Flat.of_float_array [| 0.0; 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  let v = Flat.sub_view fa ~pos:2 ~len:3 in
  Alcotest.(check int) "view length" 3 (Flat.length v);
  Flat.set v 0 99.0;
  Alcotest.(check (float 0.0)) "view aliases base" 99.0 (Flat.get fa 2)

let test_flat_accessors_checked () =
  (* [get]/[set] are primitives specialised per call site; both the
     specialised and the generic (kind unknown at the call) forms keep the
     bounds check *)
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  let generic_get : 'a 'b. ('a, 'b) Flat.t -> int -> 'a = fun a i -> Flat.get a i in
  let fa = Flat.of_float_array [| 1.0; 2.0; 3.0 |] and ia = Flat.of_array Flat.int [| 1; 2; 3 |] in
  raises "float get -1" (fun () -> Flat.get fa (-1));
  raises "float get n" (fun () -> Flat.get fa 3);
  raises "float set n" (fun () -> Flat.set fa 3 0.0);
  raises "int get -1" (fun () -> Flat.get ia (-1));
  raises "int get n" (fun () -> Flat.get ia 3);
  raises "int set n" (fun () -> Flat.set ia 3 0);
  raises "generic get n" (fun () -> generic_get fa 3);
  Alcotest.(check (float 0.0)) "float get" 3.0 (Flat.get fa 2);
  Alcotest.(check int) "int get" 3 (generic_get ia 2)

let test_flat_fallback_kind () =
  (* int32 is neither of the kinds [of_array]/[to_array] specialise, so
     this exercises their generic branch, and the kind-generic helpers
     [init] and [equal] *)
  let a = Array.init 11 (fun i -> Int32.of_int ((i * 37) - 100)) in
  let fa = Flat.of_array Bigarray.int32 a in
  Alcotest.(check (array int32)) "of_array/to_array" a (Flat.to_array fa);
  let fi = Flat.init Bigarray.int32 11 (fun i -> a.(i)) in
  Alcotest.(check bool) "init = of_array" true (Flat.equal fa fi);
  Flat.set fi 10 0l;
  Alcotest.(check bool) "equal sees a difference" false (Flat.equal fa fi)

(* [copy_in] and [lay_out] over every range of a few small parts, empty
   ones included: each stores exactly its window, equal there to the
   whole-range [concat], and leaves the rest of its destination alone;
   float64 bits (NaN payloads, -0.0) survive both; a window outside
   either array, and a kind [lay_out] does not specialise, are
   [Invalid_argument]. *)
let test_flat_ranged_copies () =
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  let parts =
    Array.mapi (fun r len -> Flat.init Flat.int len (fun i -> (100 * r) + i)) [| 0; 1; 3; 0; 2; 5 |]
  in
  let whole = Flat.concat Flat.int parts in
  let n = Array.length whole in
  let window pos len = Array.init n (fun i -> if i >= pos && i < pos + len then whole.(i) else -1) in
  for pos = 0 to n do
    for len = 0 to n - pos do
      let out = Array.make n (-1) in
      Flat.lay_out Flat.int parts out ~pos ~len;
      Alcotest.(check (array int)) (Printf.sprintf "lay_out %d+%d" pos len) (window pos len) out;
      let into = Flat.make Flat.int n (-1) in
      Flat.copy_in whole ~into ~pos ~len;
      Alcotest.(check (array int)) (Printf.sprintf "copy_in %d+%d" pos len) (window pos len)
        (Flat.to_array into)
    done
  done;
  let bits = [| 0x7FF8_0000_0000_0001L; 0xFFF8_DEAD_BEEF_0001L; 0x8000_0000_0000_0000L; 1L; 7L |] in
  let floats = Array.map Int64.float_of_bits bits in
  let into = Flat.create Flat.float64 5 in
  Flat.copy_in floats ~into ~pos:0 ~len:2;
  Flat.copy_in floats ~into ~pos:2 ~len:3;
  let out = Flat.create_array Flat.float64 5 in
  let halves = [| Flat.sub_view into ~pos:0 ~len:3; Flat.sub_view into ~pos:3 ~len:2 |] in
  Flat.lay_out Flat.float64 halves out ~pos:1 ~len:4;
  Flat.lay_out Flat.float64 halves out ~pos:0 ~len:1;
  Alcotest.(check (array int64)) "float64 bits both ways" bits (Array.map Int64.bits_of_float out);
  raises "lay_out past the parts" (fun () -> Flat.lay_out Flat.int parts (Array.make (n + 1) 0) ~pos:1 ~len:n);
  raises "lay_out past out" (fun () -> Flat.lay_out Flat.int parts (Array.make 2 0) ~pos:0 ~len:3);
  raises "lay_out negative pos" (fun () -> Flat.lay_out Flat.int parts whole ~pos:(-1) ~len:1);
  raises "lay_out float32" (fun () -> Flat.lay_out Bigarray.float32 [||] [||] ~pos:0 ~len:0);
  raises "copy_in past into" (fun () -> Flat.copy_in whole ~into:(Flat.create Flat.int 2) ~pos:1 ~len:2);
  raises "copy_in past src" (fun () -> Flat.copy_in [| 1 |] ~into:(Flat.create Flat.int 4) ~pos:0 ~len:2)

(* --- Flat_exec (unboxed host kernels) ---------------------------------------------

   The boxed skeletons are the executable specification. Operands are
   dyadic rationals and the operators exactly associative (+., max, min
   on dyadics), so every grouping yields the same bits — all comparisons
   below are bitwise ([Float.equal]), never epsilon. *)

let dyadics_of_ints xs = Array.of_list (List.map (fun i -> float_of_int i *. 0.25) xs)
let bitwise a b = Array.length a = Array.length b && Array.for_all2 Float.equal a b

let flat_backends =
  lazy [ Flat_exec.sequential; Flat_exec.on_pool (Lazy.force pool) ]

let prop_flat_exec_bitwise =
  qtest "Flat_exec kernels = boxed skeletons, bitwise (both backends)"
    QCheck.(list (int_range (-2000) 2000))
    (fun xs ->
      let a = dyadics_of_ints xs in
      let n = Array.length a in
      let fa = Flat.of_float_array a in
      let pa = Par_array.of_array a in
      List.for_all
        (fun ((fx : Flat_exec.t), exec) ->
          let open Flat_exec in
          bitwise
            (Par_array.to_array (Elementary.map ~exec (fun x -> x *. 2.0) pa))
            (Flat.to_float_array (fx.fmap (Scale 2.0) fa))
          && bitwise
               (Par_array.to_array (Elementary.scan ~exec ( +. ) pa))
               (Flat.to_float_array (fx.fscan Add fa))
          && bitwise
               (Par_array.to_array
                  (Elementary.map_scan ~exec Float.max (fun x -> x +. 1.0) pa))
               (Flat.to_float_array (fx.fmap_scan (Offset 1.0) Max fa))
          && (n = 0
             || Float.equal (Elementary.fold ~exec ( +. ) pa) (fx.ffold Add fa)
                && Float.equal
                     (Elementary.map_fold ~exec Float.min (fun x -> -.x) pa)
                     (fx.fmap_fold Neg Min fa)))
        (List.combine (Lazy.force flat_backends)
           [ Exec.sequential; Lazy.force pexec ]))

let test_flat_exec_edge_sizes () =
  (* every size from empty through 7: below, at, and above the pool's
     single-chunk regime, including the fold precondition *)
  List.iter
    (fun n ->
      let a = Array.init n (fun i -> float_of_int (i - 3) *. 0.5) in
      let fa = Flat.of_float_array a in
      let expect_scan = Array.copy a in
      for i = 1 to n - 1 do
        expect_scan.(i) <- expect_scan.(i - 1) +. a.(i)
      done;
      List.iter
        (fun (fx : Flat_exec.t) ->
          let open Flat_exec in
          Alcotest.(check bool)
            (Printf.sprintf "%s scan n=%d" fx.name n)
            true
            (bitwise expect_scan (Flat.to_float_array (fx.fscan Add fa)));
          Alcotest.(check bool)
            (Printf.sprintf "%s map n=%d" fx.name n)
            true
            (bitwise
               (Array.map (fun x -> x +. 1.0) a)
               (Flat.to_float_array (fx.fmap (Offset 1.0) fa)));
          if n = 0 then
            Alcotest.(check bool)
              (Printf.sprintf "%s ffold empty raises" fx.name)
              true
              (try
                 ignore (fx.ffold Add fa : float);
                 false
               with Invalid_argument _ -> true)
          else
            Alcotest.(check bool)
              (Printf.sprintf "%s fold n=%d" fx.name n)
              true
              (Float.equal
                 (Array.fold_left ( +. ) a.(0) (Array.sub a 1 (n - 1)))
                 (fx.ffold Add fa)))
        (Lazy.force flat_backends))
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]

let test_flat_scan_two_phase_vs_spec () =
  (* The pool scan is the Blelloch-style two-phase layout; the spec is the
     plain sequential prefix loop. Sizes straddle the grain so the run
     always crosses several chunks plus a ragged tail. *)
  let fx = Flat_exec.on_pool (Lazy.force pool) in
  List.iter
    (fun n ->
      let a =
        Array.init n (fun i -> float_of_int ((i * 37 mod 256) - 128) *. 0.125)
      in
      let fa = Flat.of_float_array a in
      let spec = Array.copy a in
      for i = 1 to n - 1 do
        spec.(i) <- spec.(i - 1) +. a.(i)
      done;
      Alcotest.(check bool)
        (Printf.sprintf "two-phase scan = prefix spec at n=%d" n)
        true
        (bitwise spec (Flat.to_float_array (fx.Flat_exec.fscan Flat_exec.Add fa))))
    [ 255; 256; 257; 1000; 4096; 5001 ]

let test_flat_scan_minor_words () =
  (* The acceptance pin for the bench pair host/{boxed,flat}-scan: the
     flat leg must allocate strictly fewer minor words. Sequential
     backends only — [Gc.minor_words] is per-domain, and the pool would
     do its allocating on the workers where we cannot see it. The boxed
     scan boxes a float per output element (>= 2n minor words at
     n = 100k); the flat scan's output lives off-heap, so only the
     Bigarray handle itself touches the minor heap. *)
  let n = 100_000 in
  let a = Array.init n (fun i -> float_of_int ((i * 7919 mod 4096) - 2048)) in
  let fa = Flat.of_float_array a in
  let pa = Par_array.of_array a in
  let boxed () = ignore (Elementary.scan ( +. ) pa : float Par_array.t) in
  let flat () =
    ignore (Flat_exec.sequential.Flat_exec.fscan Flat_exec.Add fa : Flat.float1)
  in
  boxed ();
  flat ();
  let w0 = Gc.minor_words () in
  boxed ();
  let w1 = Gc.minor_words () in
  flat ();
  let w2 = Gc.minor_words () in
  let boxed_words = w1 -. w0 and flat_words = w2 -. w1 in
  Alcotest.(check bool)
    (Printf.sprintf "flat scan %.0f minor words < boxed %.0f" flat_words
       boxed_words)
    true
    (flat_words < boxed_words)

(* --- Flat.Int (sort-family kernels) ----------------------------------------------- *)

let prop_flat_int_sort =
  qtest "Flat.Int.sort = Array.sort"
    QCheck.(list int)
    (fun xs ->
      let a = Array.of_list xs in
      let fa = Flat.Int.of_int_array a in
      Flat.Int.sort fa;
      let expect = Array.copy a in
      Array.sort compare expect;
      Flat.Int.is_sorted fa && Flat.Int.to_int_array fa = expect)

let test_flat_int_split_merge () =
  let a = Array.init 101 (fun i -> i * 31 mod 97) in
  let fa = Flat.Int.of_int_array a in
  Flat.Int.sort fa;
  let sorted = Flat.Int.to_int_array fa in
  Alcotest.(check bool) "sorted" true (Flat.Int.is_sorted fa);
  (match Flat.Int.midvalue fa with
  | None -> Alcotest.fail "midvalue on non-empty chunk"
  | Some m -> Alcotest.(check int) "midvalue = middle slot" sorted.(101 / 2) m);
  Alcotest.(check bool) "midvalue empty" true
    (Flat.Int.midvalue (Flat.Int.of_int_array [||]) = None);
  List.iter
    (fun pivot ->
      let lo, hi = Flat.Int.split_at pivot fa in
      Alcotest.(check int) "split lengths" 101 (Flat.length lo + Flat.length hi);
      Alcotest.(check bool) "low side <= pivot" true
        (Array.for_all (fun x -> x <= pivot) (Flat.Int.to_int_array lo));
      Alcotest.(check bool) "high side > pivot" true
        (Array.for_all (fun x -> x > pivot) (Flat.Int.to_int_array hi));
      Alcotest.(check (array int)) "merge restores the chunk" sorted
        (Flat.Int.to_int_array (Flat.Int.merge lo hi)))
    [ -1; 0; 13; 48; 96; 200 ];
  (* split_at halves are zero-copy views of the parent *)
  let lo, _ = Flat.Int.split_at sorted.(50) fa in
  let saved = Flat.get fa 0 in
  Flat.set lo 0 (saved + 1);
  Alcotest.(check int) "split halves alias parent" (saved + 1) (Flat.get fa 0);
  Flat.set lo 0 saved

(* Key sets that drive the radix sort's corner paths: the full unsigned
   digit range, negatives only, single-bucket levels (few or two
   distinct, all equal, one far outlier), the extreme keys together and
   ordered runs. *)
let radix_key_sets : (string * (Random.State.t -> int -> int array)) list =
  let full rng = Int64.to_int (Random.State.bits64 rng) in
  let plant rng v a =
    if Array.length a > 0 then a.(Random.State.int rng (Array.length a)) <- v;
    a
  in
  let sorted rng len =
    let a = Array.init len (fun _ -> full rng) in
    Array.sort compare a;
    a
  in
  [
    ("uniform 30-bit", fun rng len -> Array.init len (fun _ -> Random.State.bits rng));
    ("full 63-bit", fun rng len -> plant rng max_int (plant rng min_int (Array.init len (fun _ -> full rng))));
    ("negative", fun rng len -> Array.init len (fun _ -> full rng lor min_int));
    ( "few distinct",
      fun rng len ->
        let pool = Array.init (1 + Random.State.int rng 7) (fun _ -> full rng) in
        Array.init len (fun _ -> pool.(Random.State.int rng (Array.length pool))) );
    ("all equal", fun rng len -> Array.make len (full rng));
    ( "two distinct",
      fun rng len ->
        let x = full rng and y = full rng in
        Array.init len (fun _ -> if Random.State.bool rng then x else y) );
    ( "min_int and max_int",
      fun rng len ->
        Array.init len (fun _ ->
            match Random.State.int rng 3 with 0 -> min_int | 1 -> max_int | _ -> full rng) );
    ("presorted", sorted);
    ( "reversed",
      fun rng len ->
        let a = sorted rng len in
        Array.init len (fun i -> a.(len - 1 - i)) );
    ( "far outlier",
      fun rng len ->
        plant rng
          (if Random.State.bool rng then max_int else min_int)
          (Array.init len (fun _ -> Random.State.int rng (1 lsl 20))) );
  ]

(* The two ways to call the sort: scratch allocated by the sort, or the
   caller's, longer than the input and holding stale keys *)
let sort_own_scratch a =
  let fa = Flat.Int.of_int_array a in
  Flat.Int.sort fa;
  Flat.Int.to_int_array fa

let sort_caller_scratch a =
  let fa = Flat.Int.of_int_array a in
  let scratch = Flat.make Flat.int (Array.length a + 5) (-1) in
  Flat.Int.sort ~scratch fa;
  Flat.Int.to_int_array fa

let test_flat_int_sort_lengths () =
  (* whole inputs at and around the insertion cutoff, and one just past
     256 top-level buckets at the cutoff *)
  List.iter
    (fun len ->
      List.iter
        (fun (name, keys) ->
          let a = keys (Random.State.make [| len |]) len in
          let expect = Array.copy a in
          Array.sort compare expect;
          let what = Printf.sprintf "%d %s keys" len name in
          Alcotest.(check (array int)) what expect (sort_own_scratch a);
          Alcotest.(check (array int)) (what ^ ", caller's scratch") expect (sort_caller_scratch a))
        radix_key_sets)
    [ 0; 1; 31; 32; 33; (256 * 32) + 1 ]

let test_flat_int_sort_short_scratch () =
  List.iter
    (fun len ->
      let fa = Flat.Int.of_int_array (Array.init len (fun i -> len - i)) in
      let scratch = Flat.create Flat.int (len - 1) in
      Alcotest.(check bool)
        (Printf.sprintf "%d keys, %d-slot scratch rejected" len (len - 1))
        true
        (try
           Flat.Int.sort ~scratch fa;
           false
         with Invalid_argument _ -> true))
    [ 1; 32; 1_000 ]

let prop_flat_int_sort_adversarial =
  (* three length bands: whole inputs at the insertion cutoff, top-level
     buckets at it, and several radix levels *)
  let len = QCheck.Gen.(frequency [ (1, int_bound 80); (1, int_bound 10_000); (2, int_bound 100_000) ]) in
  let gen = QCheck.Gen.(pair len (int_bound 1_000_000)) in
  let print (len, seed) = Printf.sprintf "%d keys, seed %d" len seed in
  qtest ~count:20 "Flat.Int.sort = SEQ_QUICKSORT = Array.sort on adversarial keys"
    (QCheck.make ~print gen)
    (fun (len, seed) ->
      List.for_all
        (fun (name, keys) ->
          let a = keys (Random.State.make [| seed |]) len in
          let expect = Array.copy a in
          Array.sort compare expect;
          if sort_own_scratch a <> expect then
            QCheck.Test.fail_reportf "Flat.Int.sort wrong on %s keys" name;
          if sort_caller_scratch a <> expect then
            QCheck.Test.fail_reportf "Flat.Int.sort ~scratch wrong on %s keys" name;
          if Algorithms.Seq_kernels.quicksort a <> expect then
            QCheck.Test.fail_reportf "Seq_kernels.quicksort wrong on %s keys" name;
          true)
        radix_key_sets)

(* SEQ_QUICKSORT = Array.sort at every length from 0 to 40 (both sides of
   the insertion cutoff) and at the service's 1 000 keys, on every key
   class, on one repeated key (min_int and max_int among them) and on
   min_int and max_int alone. *)
let prop_quicksort_key_sets =
  qtest ~count:10 "SEQ_QUICKSORT = Array.sort on every key class, 0..40 and 1 000 keys"
    QCheck.(make ~print:(Printf.sprintf "seed %d") Gen.(int_bound 1_000_000))
    (fun seed ->
      List.for_all
        (fun len ->
          let check what a =
            let expect = Array.copy a in
            Array.sort compare expect;
            Algorithms.Seq_kernels.quicksort a = expect
            || QCheck.Test.fail_reportf "%d %s keys" len what
          in
          List.for_all (fun (name, keys) -> check name (keys (Random.State.make [| seed; len |]) len)) radix_key_sets
          && List.for_all (fun x -> check (Printf.sprintf "all-%d" x) (Array.make len x)) [ min_int; -1; 0; max_int ]
          && check "min_int/max_int" (Array.init len (fun i -> if (i * 7) land 4 = 0 then max_int else min_int)))
        (List.init 41 Fun.id @ [ 1_000 ]))

(* Sorts the window [pos, pos + len) of [a] in place, with the sort's own
   scratch and with a scratch that is itself a window of a larger
   buffer, and checks that neither buffer changes outside its window. *)
let check_sorted_window a ~pos ~len =
  let n = Array.length a in
  let window = Array.sub a pos len in
  Array.sort compare window;
  Alcotest.(check (array int)) "SEQ_QUICKSORT on the window" window
    (Algorithms.Seq_kernels.quicksort (Array.sub a pos len));
  let outside_untouched what got =
    Alcotest.(check (array int)) (what ^ ": window sorted") window (Array.sub got pos len);
    Alcotest.(check (array int)) (what ^ ": storage before the window untouched") (Array.sub a 0 pos)
      (Array.sub got 0 pos);
    Alcotest.(check (array int)) (what ^ ": storage after the window untouched")
      (Array.sub a (pos + len) (n - pos - len))
      (Array.sub got (pos + len) (n - pos - len))
  in
  let fa = Flat.Int.of_int_array a in
  Flat.Int.sort (Flat.sub_view fa ~pos ~len);
  outside_untouched "own scratch" (Flat.Int.to_int_array fa);
  let fa = Flat.Int.of_int_array a in
  let spos = 5 and slen = len + 3 in
  let buf = Flat.make Flat.int (spos + slen + 7) 42 in
  Flat.Int.sort ~scratch:(Flat.sub_view buf ~pos:spos ~len:slen) (Flat.sub_view fa ~pos ~len);
  outside_untouched "scratch window" (Flat.Int.to_int_array fa);
  let b = Flat.Int.to_int_array buf in
  Alcotest.(check (array int)) "scratch buffer untouched before its window" (Array.make spos 42)
    (Array.sub b 0 spos);
  Alcotest.(check (array int)) "scratch buffer untouched after its window" (Array.make 7 42)
    (Array.sub b (spos + slen) 7)

let test_flat_int_sort_sub_view () =
  let n = 20_000 in
  let a = List.assoc "full 63-bit" radix_key_sets (Random.State.make [| 11 |]) n in
  check_sorted_window a ~pos:37 ~len:6_000

(* The sort's loops allocate nothing per key or per bucket: with the
   caller's scratch, a 100 000-key sort allocates a few closures and, for
   a narrow key range, one small count table.  A boxed key or a closure
   per level would cost thousands of words. *)
let test_flat_int_sort_minor_words () =
  let n = 100_000 in
  let scratch = Flat.create Flat.int n in
  List.iter
    (fun (name, keys) ->
      let fa = Flat.Int.of_int_array (keys (Random.State.make [| 3 |]) n) in
      let w0 = Gc.minor_words () in
      Flat.Int.sort ~scratch fa;
      let words = Gc.minor_words () -. w0 in
      Alcotest.(check bool) (Printf.sprintf "%s keys: %.0f minor words" name words) true
        (words < 400.0))
    radix_key_sets

let test_flat_int_merge_into () =
  let a = Flat.Int.of_int_array [| 1; 4; 4; 9 |] and b = Flat.Int.of_int_array [| 0; 4; 10 |] in
  let expect = Flat.Int.to_int_array (Flat.Int.merge a b) in
  Alcotest.(check (array int)) "merge" [| 0; 1; 4; 4; 4; 9; 10 |] expect;
  (* fits: a prefix view of [into] *)
  let into = Flat.make Flat.int 9 (-1) in
  let m = Flat.Int.merge ~into a b in
  Alcotest.(check (array int)) "merge ~into (fits) = merge" expect (Flat.Int.to_int_array m);
  Alcotest.(check (array int)) "written to into's prefix, the rest untouched"
    (Array.append expect [| -1; -1 |])
    (Flat.Int.to_int_array into);
  Flat.set m 0 77;
  Alcotest.(check int) "result aliases into" 77 (Flat.get into 0);
  (* exactly fits *)
  let into = Flat.create Flat.int 7 in
  let m = Flat.Int.merge ~into a b in
  Flat.set m 6 55;
  Alcotest.(check int) "an exact fit aliases into" 55 (Flat.get into 6);
  (* too short: fresh storage, into untouched *)
  let into = Flat.make Flat.int 6 (-1) in
  let m = Flat.Int.merge ~into a b in
  Alcotest.(check (array int)) "merge ~into (too short) = merge" expect (Flat.Int.to_int_array m);
  Flat.set m 0 77;
  Alcotest.(check (array int)) "too-short into untouched" (Array.make 6 (-1))
    (Flat.Int.to_int_array into);
  Alcotest.(check (array int)) "empty inputs" [||]
    (Flat.Int.to_int_array (Flat.Int.merge ~into (Flat.Int.of_int_array [||]) (Flat.Int.of_int_array [||])))

(* --- the branch-free merge ------------------------------------------------------- *)

(* Each case merges its two inputs as windows of larger buffers (so a
   read past an input's end finds [min_int], which would pass a skip
   test), without [?into] and with an [into] that fits with slack, fits
   exactly and is one slot short, and checks every result against
   MERGE. *)
let check_merge what a b =
  let expect = Algorithms.Seq_kernels.merge a b in
  let n = Array.length expect in
  let window keys =
    let len = Array.length keys in
    let buf = Flat.make Flat.int (len + 6) min_int in
    Flat.fill (Flat.sub_view buf ~pos:0 ~len:3) max_int;
    let w = Flat.sub_view buf ~pos:3 ~len in
    Flat.blit ~src:(Flat.Int.of_int_array keys) ~dst:w;
    w
  in
  let fa = window a and fb = window b in
  let merged ?into () = Flat.Int.merge ?into fa fb in
  Alcotest.(check (array int)) what expect (Flat.Int.to_int_array (merged ()));
  let into = Flat.make Flat.int (n + 3) 12_345 in
  let m = merged ~into () in
  Alcotest.(check (array int)) (what ^ ", into fits") expect (Flat.Int.to_int_array m);
  Alcotest.(check (array int)) (what ^ ", into's slack untouched") [| 12_345; 12_345; 12_345 |]
    (Array.sub (Flat.Int.to_int_array into) n 3);
  let exact = Flat.create Flat.int n in
  let m' = merged ~into:exact () in
  Alcotest.(check (array int)) (what ^ ", into fits exactly") expect (Flat.Int.to_int_array m');
  if n > 0 then begin
    Flat.set m 0 (-7);
    Alcotest.(check int) (what ^ ", the result aliases into") (-7) (Flat.get into 0);
    Flat.set m' (n - 1) (-7);
    Alcotest.(check int) (what ^ ", an exact fit aliases into") (-7) (Flat.get exact (n - 1));
    let into = Flat.make Flat.int (n - 1) 12_345 in
    let m = merged ~into () in
    Alcotest.(check (array int)) (what ^ ", into too short") expect (Flat.Int.to_int_array m);
    Alcotest.(check (array int)) (what ^ ", a short into untouched") (Array.make (n - 1) 12_345)
      (Flat.Int.to_int_array into)
  end

let sorted_keys keys =
  Array.sort compare keys;
  keys

(* [na] + [nb] keys of a sorted pool dealt to the two sides in runs of
   [run], alternately; a side that is full passes its turn *)
let deal_runs ~run pool na nb =
  let a = Array.make na 0 and b = Array.make nb 0 in
  let i = ref 0 and j = ref 0 in
  Array.iteri
    (fun k x ->
      if (!i < na && (k / run) land 1 = 0) || !j >= nb then begin
        a.(!i) <- x;
        incr i
      end
      else begin
        b.(!j) <- x;
        incr j
      end)
    pool;
  (a, b)

(* Input pairs of the given lengths in the shapes the merge's paths tell
   apart: random halves (every compare a coin flip), one side wholly
   below the other, runs of 64, few distinct keys (ties across the
   inputs), one side in a narrow band of the other's range, keys dealt
   alternately, all keys equal, and the extreme keys on both sides. *)
let merge_shapes : (string * (Random.State.t -> int -> int -> int array * int array)) list =
  let keys rng n = Array.init n (fun _ -> Random.State.bits rng) in
  let pool rng na nb = sorted_keys (keys rng (na + nb)) in
  [
    ("interleaved", fun rng na nb -> (sorted_keys (keys rng na), sorted_keys (keys rng nb)));
    ("a below b", fun rng na nb -> let p = pool rng na nb in (Array.sub p 0 na, Array.sub p na nb));
    ("b below a", fun rng na nb -> let p = pool rng na nb in (Array.sub p nb na, Array.sub p 0 nb));
    ("runs of 64", fun rng na nb -> deal_runs ~run:64 (pool rng na nb) na nb);
    ( "few distinct",
      fun rng na nb ->
        let k n = sorted_keys (Array.init n (fun _ -> Random.State.int rng 4 * 1_000)) in
        (k na, k nb) );
    ( "a in a narrow band of b",
      fun rng na nb ->
        (sorted_keys (Array.init na (fun _ -> (1 lsl 29) + Random.State.int rng 1_000)), sorted_keys (keys rng nb)) );
    ("alternating", fun rng na nb -> deal_runs ~run:1 (pool rng na nb) na nb);
    ("all equal", fun _ na nb -> (Array.make na 5, Array.make nb 5));
    ( "min_int and max_int",
      fun rng na nb ->
        let k n =
          sorted_keys
            (Array.init n (fun _ ->
                 match Random.State.int rng 3 with 0 -> min_int | 1 -> max_int | _ -> Random.State.bits rng - (1 lsl 29)))
        in
        (k na, k nb) );
  ]

(* Lengths at every boundary of the 8-key blocks (a skip test reads a
   side's 8th key; the steps run 8 at a time while both sides hold 8),
   and long sides whose ends reach the one-step loop and the tail blit *)
let merge_lengths = [ 0; 1; 7; 8; 9; 15; 16; 17; 1_000; 1_031 ]

let test_flat_int_merge_shapes () =
  List.iter
    (fun (shape, gen) ->
      List.iter
        (fun na ->
          List.iter
            (fun nb ->
              let a, b = gen (Random.State.make [| na; nb |]) na nb in
              check_merge (Printf.sprintf "%s, %d + %d keys" shape na nb) a b)
            merge_lengths)
        merge_lengths)
    merge_shapes

(* The shapes at 500 000 keys: 250 000 a side, and 1 000 + 499 000 *)
let test_flat_int_merge_large () =
  List.iter
    (fun (shape, (na, nb)) ->
      let a, b = (List.assoc shape merge_shapes) (Random.State.make [| na |]) na nb in
      Alcotest.(check bool) (Printf.sprintf "%s, %d + %d keys" shape na nb) true
        (Flat.Int.to_int_array (Flat.Int.merge (Flat.Int.of_int_array a) (Flat.Int.of_int_array b))
        = Algorithms.Seq_kernels.merge a b))
    [
      ("interleaved", (250_000, 250_000));
      ("b below a", (250_000, 250_000));
      ("runs of 64", (250_000, 250_000));
      ("few distinct", (250_000, 250_000));
      ("interleaved", (1_000, 499_000));
      ("alternating", (250_000, 250_000));
    ]

(* Random lengths and key ranges: keys of [bits] significant bits either
   side of 0 ([bits] = 62 is the whole int range) *)
let test_flat_int_merge_property () =
  let gen = Prop.Gen.(pair (pair (int_range 0 3_000) (int_range 0 3_000)) (pair (int_range 0 62) (int_range 0 1_000_000))) in
  let shrink = Prop.Shrink.(pair (pair int int) (pair int nothing)) in
  let prop ((na, nb), (bits, seed)) =
    let rng = Random.State.make [| seed |] in
    let keys n = sorted_keys (Array.init n (fun _ -> Int64.to_int (Random.State.bits64 rng) asr (62 - bits))) in
    let a = keys na and b = keys nb in
    let got = Flat.Int.to_int_array (Flat.Int.merge (Flat.Int.of_int_array a) (Flat.Int.of_int_array b)) in
    if got = Algorithms.Seq_kernels.merge a b then Prop.Runner.Pass_case else Prop.Runner.Fail_case "differs from MERGE"
  in
  let config = { Prop.Runner.default with Prop.Runner.count = 300; seed = 33 } in
  match Prop.Runner.check ~config ~shrink ~gen ~prop () with
  | Prop.Runner.Pass _ -> ()
  | Prop.Runner.Fail f ->
      let (na, nb), (bits, seed) = f.Prop.Runner.shrunk in
      Alcotest.failf "%d + %d keys of %d bits, seed %d: %s" na nb bits seed f.Prop.Runner.message
  | Prop.Runner.Gave_up _ -> Alcotest.fail "property gave up"

(* A 500 000-key merge into a warm buffer allocates a few bigarray
   headers (the result's view and the tail blit's two), never a word per
   key or per block *)
let test_flat_int_merge_minor_words () =
  let rng = Random.State.make [| 5 |] in
  let into = Flat.create Flat.int 500_000 in
  List.iter
    (fun (shape, gen) ->
      let a, b = gen rng 250_000 250_000 in
      let fa = Flat.Int.of_int_array a and fb = Flat.Int.of_int_array b in
      ignore (Flat.Int.merge ~into fa fb : Flat.Int.t);
      let w0 = Gc.minor_words () in
      ignore (Flat.Int.merge ~into fa fb : Flat.Int.t);
      let words = Gc.minor_words () -. w0 in
      Alcotest.(check bool) (Printf.sprintf "%s keys: %.0f minor words" shape words) true (words < 200.0))
    (List.filter (fun (shape, _) -> List.mem shape [ "interleaved"; "b below a"; "runs of 64" ]) merge_shapes)

let test_flat_int_of_int_array_into () =
  let keys = [| 5; -3; 8 |] in
  let into = Flat.make Flat.int 5 (-1) in
  let fa = Flat.Int.of_int_array ~into keys in
  Alcotest.(check (array int)) "the keys" keys (Flat.Int.to_int_array fa);
  Alcotest.(check (array int)) "written to into's prefix, the rest untouched" [| 5; -3; 8; -1; -1 |]
    (Flat.Int.to_int_array into);
  Flat.set fa 0 77;
  Alcotest.(check int) "result aliases into" 77 (Flat.get into 0);
  Alcotest.(check int) "empty keys" 0 (Flat.length (Flat.Int.of_int_array ~into [||]));
  Alcotest.check_raises "too short"
    (Invalid_argument "Flat.Int.of_int_array: into is shorter than the array") (fun () ->
      ignore (Flat.Int.of_int_array ~into:(Flat.create Flat.int 2) keys))

(* --- the LSD radix sort's passes -------------------------------------------------- *)

(* Each case below sorts its keys with the sort's own scratch and with
   the caller's, and checks both against [Array.sort] and SEQ_QUICKSORT. *)
let check_radix_case what a =
  let expect = Array.copy a in
  Array.sort compare expect;
  Alcotest.(check (array int)) (what ^ ": SEQ_QUICKSORT") expect (Algorithms.Seq_kernels.quicksort a);
  Alcotest.(check (array int)) what expect (sort_own_scratch a);
  Alcotest.(check (array int)) (what ^ ", caller's scratch") expect (sort_caller_scratch a)

let radix_n = 5_000

(* [n] keys whose range [max - min] has exactly [bits] significant bits:
   [base] and [base + 2^bits - 1] are among them. *)
let keys_spanning rng ~base ~bits n =
  let a = Array.init n (fun _ -> base + (Int64.to_int (Random.State.bits64 rng) land ((1 lsl bits) - 1))) in
  a.(Random.State.int rng n) <- base;
  a.(Random.State.int rng n) <- base + ((1 lsl bits) - 1);
  a

(* A range of [bits] bits takes [ceil (bits / 11)] passes: 11k bits take
   k and 11k + 1 bits take k + 1, so both odd pass counts (the keys end
   in the scratch and are copied back) and even ones occur. *)
let test_flat_int_sort_pass_counts () =
  List.iter
    (fun bits ->
      let rng = Random.State.make [| bits |] in
      check_radix_case (Printf.sprintf "%d-bit range" bits)
        (keys_spanning rng ~base:(-1_000_003) ~bits radix_n))
    [ 11; 12; 22; 23; 33; 34; 44; 45; 55; 56 ]

(* 33-bit ranges, three 11-bit digits of [x - min]; a constant digit's
   pass is skipped and the next digit is counted on its own. *)
let test_flat_int_sort_constant_digit () =
  let rng = Random.State.make [| 17 |] in
  let base = -(1 lsl 45) + 999 in
  let key d2 d1 d0 = base + ((d2 lsl 22) lor (d1 lsl 11) lor d0) in
  let any () = Random.State.int rng 2048 in
  let case what ~low ~high key_of =
    let a = Array.init radix_n (fun _ -> key_of ()) in
    a.(Random.State.int rng radix_n) <- low;
    a.(Random.State.int rng radix_n) <- high;
    check_radix_case what a
  in
  case "middle digit constant" ~low:(key 0 5 0) ~high:(key 2047 5 2047) (fun () -> key (any ()) 5 (any ()));
  case "low digit constant" ~low:(key 0 0 7) ~high:(key 2047 2047 7) (fun () -> key (any ()) (any ()) 7);
  case "low two digits constant" ~low:(key 0 5 7) ~high:(key 2047 5 7) (fun () -> key (any ()) 5 7);
  (* one key off an otherwise constant digit: its pass must run.  The
     outlier is the maximum, and its low digits are those of the minimum,
     so the lower passes alone would put it first. *)
  case "one key off a constant digit" ~low:0 ~high:(1 lsl 40) (fun () -> Random.State.int rng (1 lsl 22))

(* Digit 0 of [x - min] is the count table of [x]'s low bits rotated by
   [min]'s: minima with nonzero low bits, positive and negative, over
   ranges whose digits are 11 bits wide and narrower (30 bits: three
   10-bit digits). *)
let test_flat_int_sort_rotated_low_digit () =
  List.iter
    (fun (base, bits) ->
      let rng = Random.State.make [| base land 0xffff; bits |] in
      check_radix_case (Printf.sprintf "min %d, %d-bit range" base bits) (keys_spanning rng ~base ~bits radix_n))
    [ ((12_345 * 2048) + 1_777, 30); ((-999 * 2048) + 5, 30); (2047, 11); (-1, 33); (1_025, 24) ]

let test_flat_int_sort_full_range () =
  let rng = Random.State.make [| 23 |] in
  let a = Array.init radix_n (fun _ -> Int64.to_int (Random.State.bits64 rng)) in
  a.(0) <- max_int;
  a.(radix_n - 1) <- min_int;
  check_radix_case "min_int..max_int" a;
  check_radix_case "min_int and max_int only" (Array.init radix_n (fun i -> if i land 1 = 0 then max_int else min_int))

(* One inversion at either end of a presorted or reversed input: the
   ordered-input check must not take it for ordered. *)
let test_flat_int_sort_one_inversion () =
  let rng = Random.State.make [| 29 |] in
  let ascending = Array.init radix_n (fun i -> (i * 1_000) + Random.State.int rng 1_000 - 77_777) in
  let descending = Array.init radix_n (fun i -> ascending.(radix_n - 1 - i)) in
  List.iter
    (fun (name, keys) ->
      check_radix_case name keys;
      List.iter
        (fun (where, i) ->
          let a = Array.copy keys in
          let x = a.(i) in
          a.(i) <- a.(i + 1);
          a.(i + 1) <- x;
          check_radix_case (Printf.sprintf "%s, one inversion at the %s" name where) a)
        [ ("start", 0); ("end", radix_n - 2) ])
    [ ("presorted", ascending); ("reversed", descending) ]

(* The shared pass plan: digits of equal width, at most [digit_bits]
   wide.  All-equal keys have a zero range, which gets no pass. *)
let test_radix_plan () =
  let plan what expect ~digit_bits range =
    let { Radix.passes; width; mask } = Radix.plan ~digit_bits range in
    Alcotest.(check (triple int int int)) what expect (passes, width, mask)
  in
  plan "zero range" (0, 0, 0) ~digit_bits:11 0;
  plan "zero range, 8-bit digits" (0, 0, 0) ~digit_bits:8 0;
  plan "one bit" (1, 1, 1) ~digit_bits:8 1;
  plan "30 bits, 11-bit digits" (3, 10, 1023) ~digit_bits:11 ((1 lsl 30) - 1);
  plan "30 bits, 8-bit digits" (4, 8, 255) ~digit_bits:8 ((1 lsl 30) - 1);
  plan "33 bits, 11-bit digits" (3, 11, 2047) ~digit_bits:11 (1 lsl 32);
  plan "full range, 11-bit digits" (6, 11, 2047) ~digit_bits:11 (max_int - min_int);
  plan "full range, 8-bit digits" (8, 8, 255) ~digit_bits:8 (max_int - min_int)

(* SEQ_QUICKSORT's digits are 8 bits wide: ranges of 8k bits take k
   passes and of 8k + 1 bits k + 1, and a digit constant over all keys
   skips its pass. *)
let test_quicksort_pass_counts () =
  List.iter
    (fun bits ->
      let rng = Random.State.make [| bits; 8 |] in
      check_radix_case (Printf.sprintf "%d-bit range" bits) (keys_spanning rng ~base:(-77) ~bits radix_n))
    [ 8; 9; 16; 17; 24; 25; 32; 33; 40; 41; 48; 49; 56; 57 ];
  let rng = Random.State.make [| 19 |] in
  let key d2 d1 d0 = 1_000_000_007 + ((d2 lsl 16) lor (d1 lsl 8) lor d0) in
  let a = Array.init radix_n (fun _ -> key (Random.State.int rng 256) 3 (Random.State.int rng 256)) in
  a.(0) <- key 0 3 0;
  a.(1) <- key 255 3 255;
  check_radix_case "24-bit range, middle 8-bit digit constant" a

(* A window sorted in an odd number of passes, so the final copy back
   from the scratch must land in the window only. *)
let test_flat_int_sort_window_copy_back () =
  let rng = Random.State.make [| 31 |] in
  check_sorted_window (keys_spanning rng ~base:(-5) ~bits:33 8_000) ~pos:101 ~len:5_000

(* --- Exec internals --------------------------------------------------------------- *)

let test_chunk_bounds () =
  Alcotest.(check (array int)) "10 into 3" [| 0; 4; 7; 10 |] (Exec.chunk_bounds 10 3);
  Alcotest.(check (array int)) "fewer elements than chunks" [| 0; 1; 2 |] (Exec.chunk_bounds 2 5)

(* At least one chunk, never more chunks than elements, none empty
   when there are elements, and sizes differ by at most one with the
   larger ones first. *)
let prop_chunk_bounds_balanced =
  qtest "chunk bounds are balanced and non-empty"
    QCheck.(pair (int_range 0 500) (int_range 1 40))
    (fun (n, k) ->
      let b = Exec.chunk_bounds n k in
      let c = Array.length b - 1 in
      let sizes = Array.init c (fun i -> b.(i + 1) - b.(i)) in
      c = max 1 (min n k)
      && b.(0) = 0
      && b.(c) = n
      && (n = 0 || Array.for_all (fun s -> s >= 1) sizes)
      && Array.for_all (fun s -> s = n / c || s = (n / c) + 1) sizes
      && List.for_all (fun i -> sizes.(i) >= sizes.(i + 1)) (List.init (c - 1) Fun.id))

let test_grain_for () =
  let p = Lazy.force pool in
  let w = max 1 (Runtime.Pool.num_workers p) in
  Alcotest.(check int) "n=0" 1 (Runtime.Pool.grain_for p 0);
  Alcotest.(check int) "small array runs as one task" 10 (Runtime.Pool.grain_for p 10);
  let n = 100_000 in
  let g = Runtime.Pool.grain_for p n in
  Alcotest.(check bool) "never below the minimum run" true (g >= 32);
  Alcotest.(check bool) "at most ~4 tasks per worker" true (((n + g - 1) / g) <= 4 * w)

let () =
  let suite =
    [
      ( "par_array",
        [
          Alcotest.test_case "basics" `Quick test_par_array_basics;
          Alcotest.test_case "bounds" `Quick test_par_array_bounds;
          Alcotest.test_case "of_array copies" `Quick test_par_array_of_array_copies;
          Alcotest.test_case "concat/sub" `Quick test_par_array_concat_sub;
          Alcotest.test_case "sub_view" `Quick test_par_array_sub_view;
        ] );
      ( "partition",
        [
          prop_partition_roundtrip;
          Alcotest.test_case "block sizes" `Quick test_partition_block_sizes;
          Alcotest.test_case "block contents" `Quick test_partition_block_contents;
          Alcotest.test_case "cyclic contents" `Quick test_partition_cyclic_contents;
          Alcotest.test_case "block-cyclic" `Quick test_partition_block_cyclic;
          Alcotest.test_case "parts > elements" `Quick test_partition_more_parts_than_elements;
          Alcotest.test_case "invalid patterns" `Quick test_partition_invalid;
          Alcotest.test_case "unapply consistency" `Quick test_partition_unapply_inconsistent;
          prop_partition_fastpath;
          Alcotest.test_case "fast paths at sizes 0..n<parts" `Quick
            test_partition_fastpath_small_sizes;
          prop_block_bounds_delimit_block_parts;
          prop_split_combine;
        ] );
      ( "partition2",
        [
          prop_partition2_roundtrip;
          Alcotest.test_case "row_block shape" `Quick test_partition2_row_block_shape;
          Alcotest.test_case "row_col_block shape" `Quick test_partition2_row_col_block_shape;
        ] );
      ( "par_array2",
        [
          Alcotest.test_case "imap/fold" `Quick test_par_array2_imap_fold;
          Alcotest.test_case "transpose" `Quick test_par_array2_transpose;
          Alcotest.test_case "rotate_row" `Quick test_rotate_row;
          Alcotest.test_case "rotate_col" `Quick test_rotate_col;
          prop_rotate_row_inverse;
        ] );
      ( "config",
        [
          Alcotest.test_case "align/unalign" `Quick test_align_unalign;
          Alcotest.test_case "align mismatch" `Quick test_align_mismatch;
          Alcotest.test_case "distribution2" `Quick test_distribution2;
          Alcotest.test_case "distribution with movement" `Quick test_distribution2_with_movement;
          Alcotest.test_case "redistribution" `Quick test_redistribution;
          Alcotest.test_case "gather inverse" `Quick test_gather_is_partition_inverse;
        ] );
      ( "elementary",
        [
          Alcotest.test_case "map (both backends)" `Quick test_map_both;
          Alcotest.test_case "imap (both backends)" `Quick test_imap_both;
          Alcotest.test_case "fold (both backends)" `Quick test_fold_both;
          Alcotest.test_case "fold order" `Quick test_fold_non_commutative;
          Alcotest.test_case "fold empty" `Quick test_fold_empty;
          Alcotest.test_case "scan (both backends)" `Quick test_scan_both;
          prop_scan_matches_seq;
          Alcotest.test_case "scan_exclusive" `Quick test_scan_exclusive;
          Alcotest.test_case "zip_with" `Quick test_zip_with;
        ] );
      ( "communication",
        [
          Alcotest.test_case "rotate" `Quick test_rotate;
          prop_rotate_compose;
          prop_rotate_identity;
          Alcotest.test_case "brdcast" `Quick test_brdcast;
          Alcotest.test_case "applybrdcast" `Quick test_applybrdcast;
          Alcotest.test_case "fetch" `Quick test_fetch;
          Alcotest.test_case "fetch one-to-many" `Quick test_fetch_one_to_many;
          prop_fetch_compose;
          Alcotest.test_case "send many-to-one" `Quick test_send_many_to_one;
          Alcotest.test_case "send one-to-many" `Quick test_send_one_to_many;
          prop_send_one_compose;
          Alcotest.test_case "send_one collision" `Quick test_send_one_rejects_collision;
          Alcotest.test_case "all_to_all" `Quick test_all_to_all;
        ] );
      ( "computational",
        [
          Alcotest.test_case "farm (both backends)" `Quick test_farm;
          Alcotest.test_case "farm = map" `Quick test_farm_is_map;
          Alcotest.test_case "dynamic farm" `Quick test_farm_dynamic;
          Alcotest.test_case "iter_until" `Quick test_iter_until;
          Alcotest.test_case "iter_until immediate" `Quick test_iter_until_immediate;
          Alcotest.test_case "iter_for" `Quick test_iter_for;
          Alcotest.test_case "iter_for negative" `Quick test_iter_for_negative;
          Alcotest.test_case "spmd stages" `Quick test_spmd_stages;
          Alcotest.test_case "spmd empty" `Quick test_spmd_empty_is_id;
        ] );
      ( "config_extra",
        [
          Alcotest.test_case "align3" `Quick test_align3;
          Alcotest.test_case "distribution3" `Quick test_distribution3;
          Alcotest.test_case "distribution_list" `Quick test_distribution_list;
          Alcotest.test_case "redistribution_list" `Quick test_redistribution_list;
          prop_scan_exclusive_shifts_inclusive;
          Alcotest.test_case "fold_with_unit" `Quick test_fold_with_unit;
          prop_block_cyclic_balanced;
          Alcotest.test_case "zip mismatch" `Quick test_par_array2_zip_mismatch;
          prop_rotate_col_inverse;
        ] );
      ( "nested",
        [
          prop_segmented_scan_matches_reference;
          prop_segmented_scan_pool_backend;
          prop_segmented_fold;
          prop_segmented_op_associative;
          prop_segmented_op_resets;
        ] );
      ( "fused",
        [
          Alcotest.test_case "map_fold = fold.map" `Quick test_fused_map_fold;
          Alcotest.test_case "map_scan = scan.map" `Quick test_fused_map_scan;
          Alcotest.test_case "map_compose = map.map" `Quick test_fused_map_compose;
          Alcotest.test_case "combine order" `Quick test_fused_combine_order;
          Alcotest.test_case "empty inputs" `Quick test_fused_empty;
        ] );
      ( "flat",
        [
          Alcotest.test_case "view aliasing discipline" `Quick test_flat_views_alias;
          Alcotest.test_case "accessors bounds-checked" `Quick test_flat_accessors_checked;
          Alcotest.test_case "fallback kind (int32)" `Quick test_flat_fallback_kind;
          Alcotest.test_case "ranged copies, every range" `Quick test_flat_ranged_copies;
        ] );
      ( "flat_exec",
        [
          prop_flat_exec_bitwise;
          Alcotest.test_case "edge sizes 0..7 (both backends)" `Quick test_flat_exec_edge_sizes;
          Alcotest.test_case "two-phase scan = prefix spec" `Quick test_flat_scan_two_phase_vs_spec;
          Alcotest.test_case "flat scan allocates fewer minor words" `Quick
            test_flat_scan_minor_words;
          prop_flat_int_sort;
          Alcotest.test_case "Flat.Int sort-family kernels" `Quick test_flat_int_split_merge;
          prop_flat_int_sort_adversarial;
          Alcotest.test_case "Flat.Int.sort lengths around the cutoff" `Quick
            test_flat_int_sort_lengths;
          Alcotest.test_case "Flat.Int.sort rejects a short scratch" `Quick
            test_flat_int_sort_short_scratch;
          Alcotest.test_case "Flat.Int.sort on a sub_view window" `Quick test_flat_int_sort_sub_view;
          Alcotest.test_case "Flat.Int.sort ~scratch allocates a few words" `Quick
            test_flat_int_sort_minor_words;
          Alcotest.test_case "Flat.Int.merge ~into" `Quick test_flat_int_merge_into;
          Alcotest.test_case "Flat.Int.merge = MERGE on every shape and block boundary" `Quick
            test_flat_int_merge_shapes;
          Alcotest.test_case "Flat.Int.merge = MERGE at 500 000 keys" `Quick test_flat_int_merge_large;
          Alcotest.test_case "Flat.Int.merge = MERGE on random lengths and key ranges" `Quick
            test_flat_int_merge_property;
          Alcotest.test_case "Flat.Int.merge ~into allocates a few words" `Quick
            test_flat_int_merge_minor_words;
          Alcotest.test_case "Flat.Int.of_int_array ~into" `Quick test_flat_int_of_int_array_into;
          Alcotest.test_case "Flat.Int.sort odd and even pass counts" `Quick
            test_flat_int_sort_pass_counts;
          Alcotest.test_case "Flat.Int.sort skips a constant digit" `Quick
            test_flat_int_sort_constant_digit;
          Alcotest.test_case "Flat.Int.sort rotates the low-digit counts" `Quick
            test_flat_int_sort_rotated_low_digit;
          Alcotest.test_case "Flat.Int.sort on min_int..max_int" `Quick test_flat_int_sort_full_range;
          Alcotest.test_case "Flat.Int.sort with one inversion" `Quick test_flat_int_sort_one_inversion;
          Alcotest.test_case "Flat.Int.sort copies back into a window" `Quick
            test_flat_int_sort_window_copy_back;
          Alcotest.test_case "Radix.plan" `Quick test_radix_plan;
          Alcotest.test_case "SEQ_QUICKSORT odd and even pass counts, a constant digit" `Quick
            test_quicksort_pass_counts;
          prop_quicksort_key_sets;
        ] );
      ( "exec",
        [
          Alcotest.test_case "chunk bounds" `Quick test_chunk_bounds;
          prop_chunk_bounds_balanced;
          Alcotest.test_case "grain heuristic" `Quick test_grain_for;
        ] );
    ]
  in
  let finally () = if Lazy.is_val pool then Runtime.Pool.teardown (Lazy.force pool) in
  Fun.protect ~finally (fun () -> Alcotest.run "scl" suite)
