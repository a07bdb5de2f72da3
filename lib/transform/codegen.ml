(* Compile a skeleton pipeline to OCaml source over the Dvec templates —
   the paper's implementation route made concrete: "SCL skeletons can be
   efficiently implemented as libraries or macros defined over base
   languages and standard communication libraries".  The generated program
   is ordinary OCaml against [Scl_sim]; the repository checks a generated
   example in (examples/generated_pipeline.ml) and compiles it, and the
   test suite asserts regeneration reproduces it byte-for-byte.

   Only *parallel* forms are compilable: [Foldr_compose] must first be
   rewritten by the map-distribution rule, and nested parallelism must be
   flattened — exactly the story of Section 4, where transformation is what
   makes programs compilable to efficient SPMD code. *)

exception Not_compilable of string

let not_compilable fmt = Printf.ksprintf (fun s -> raise (Not_compilable s)) fmt

(* OCaml source for the registry primitives (over int). *)
let fn_source (f : Fn.t) : string =
  match f.Fn.name with
  | "id" -> "(fun x -> x)"
  | "incr" -> "(fun x -> x + 1)"
  | "double" -> "(fun x -> 2 * x)"
  | "square" -> "(fun x -> x * x)"
  | "negate" -> "(fun x -> -x)"
  | "halve" -> "(fun x -> x / 2)"
  | name -> not_compilable "unary function %S has no source form (fuse only registry primitives)" name

let fn2_source (f : Fn.t2) : string =
  match f.Fn.name2 with
  | "add" -> "( + )"
  | "mul" -> "( * )"
  | "max" -> "max"
  | "min" -> "min"
  | "sub" -> "( - )"
  | name -> not_compilable "binary function %S has no source form" name

let indexed_source (f : Fn.t2) : string =
  match f.Fn.name2 with
  | "add_index" -> "(fun i x -> i + x)"
  | name -> not_compilable "indexed function %S has no source form" name

let ifn_source (f : Fn.ifn) : string =
  match f.Fn.iname with
  | "id" -> "(fun i -> i)"
  | "reverse" -> "(fun i -> __n - 1 - i)"
  | name ->
      (* shift(k) *)
      if String.length name > 6 && String.sub name 0 6 = "shift(" then begin
        let k = String.sub name 6 (String.length name - 7) in
        Printf.sprintf "(fun i -> (((i + (%s)) mod __n) + __n) mod __n)" k
      end
      else not_compilable "index function %S has no source form" name

type target = Spmd | Host

(* Emit statements; the value travels in variables dv0, dv1, ...; a
   trailing fold produces a scalar binding instead. *)
type ctx = { buf : Buffer.t; mutable next : int; indent : string; target : target }

let fresh ctx =
  let v = Printf.sprintf "dv%d" ctx.next in
  ctx.next <- ctx.next + 1;
  v

let line ctx fmt = Printf.ksprintf (fun s -> Buffer.add_string ctx.buf (ctx.indent ^ s ^ "\n")) fmt

(* Per-target spellings of the skeleton operations. *)
let op ctx name =
  match (ctx.target, name) with
  | Spmd, "map" -> "Scl_sim.Dvec.map"
  | Spmd, "imap" -> "Scl_sim.Dvec.imap"
  | Spmd, "scan" -> "Scl_sim.Dvec.scan"
  | Spmd, "fold" -> "Scl_sim.Dvec.fold"
  | Spmd, "rotate" -> "Scl_sim.Dvec.rotate"
  | Spmd, "fetch" -> "Scl_sim.Dvec.fetch"
  | Spmd, "total" -> "Scl_sim.Dvec.total"
  | Host, "map" -> "Scl.Elementary.map"
  | Host, "imap" -> "Scl.Elementary.imap"
  | Host, "scan" -> "Scl.Elementary.scan"
  | Host, "fold" -> "Scl.Elementary.fold"
  | Host, "rotate" -> "Scl.Communication.rotate"
  | Host, "fetch" -> "Scl.Communication.fetch"
  | Host, "total" -> "Scl.Par_array.length"
  | _, other -> invalid_arg ("Codegen.op: " ^ other)

(* The Dvec skeletons carry cost annotations; the host skeletons carry the
   execution backend. *)
let flops_arg ctx k = match ctx.target with Spmd -> Printf.sprintf "~flops_per_elem:%d " k | Host -> "~exec "

let plain_arg ctx = match ctx.target with Spmd -> "" | Host -> "~exec "

(* [seg] is the static segmentation state: inside a [split]..[combine]
   region the value variable still holds the *flat* payload (the segment
   descriptor is compile-time block bounds, so it needs no runtime
   representation), and the only stages that compile there are [mapn] of
   map bodies — for which the segmented map is literally the flat map.
   That is the flattening rules' insight realised in the emitted code. *)
let rec emit_chain ctx ~seg (stages : Ast.expr list) (v : string) :
    [ `Vec of string | `Scalar of string ] =
  match stages with
  | [] ->
      if seg then not_compilable "pipeline ends inside a segmented region: combine first";
      `Vec v
  | Ast.Split p :: rest ->
      if seg then not_compilable "nesting deeper than one level is not compilable: flatten first";
      if p <= 0 then not_compilable "split: non-positive part count";
      line ctx "(* split %d: enter the segmented region — block bounds are static, the payload stays flat *)" p;
      emit_chain ctx ~seg:true rest v
  | Ast.Combine :: rest ->
      if not seg then
        not_compilable "combine without a matching split is not compilable";
      line ctx "(* combine: leave the segmented region — the flat payload is already the combined array *)";
      emit_chain ctx ~seg:false rest v
  | Ast.Map_nested body :: rest -> (
      if not seg then
        not_compilable
          "mapn outside a split region is not compilable: apply the flattening rewrites first";
      let bchain = Ast.to_chain body in
      match bchain with
      | [] -> emit_chain ctx ~seg rest v
      | _ when List.for_all (function Ast.Map _ -> true | _ -> false) bchain ->
          line ctx "(* mapn of maps: the segmented map is the flat map (flattening rule) *)";
          let v' =
            List.fold_left
              (fun v st ->
                match emit_stage ctx st v with `Vec v' -> v' | `Scalar _ -> assert false)
              v bchain
          in
          emit_chain ctx ~seg rest v'
      | _ ->
          not_compilable
            "only map bodies compile inside a segmented region: apply the flattening \
             rewrites (e.g. nested_fold_flatten) first")
  | stage :: rest -> (
      if seg then
        not_compilable "stage %S crosses a segment boundary: combine first"
          (Ast.to_string stage);
      match emit_stage ctx stage v with
      | `Vec v' -> emit_chain ctx ~seg rest v'
      | `Scalar s ->
          if rest <> [] then
            not_compilable "a fold may only appear as the last stage of a compiled pipeline";
          `Scalar s)

and emit_stage ctx (stage : Ast.expr) (v : string) : [ `Vec of string | `Scalar of string ] =
  match stage with
  | Ast.Id -> `Vec v
  | Ast.Map f ->
      let v' = fresh ctx in
      line ctx "let %s = %s %s%s %s in" v' (op ctx "map") (flops_arg ctx f.Fn.cost) (fn_source f) v;
      `Vec v'
  | Ast.Imap f ->
      let v' = fresh ctx in
      line ctx "let %s = %s %s%s %s in" v' (op ctx "imap") (flops_arg ctx f.Fn.cost2)
        (indexed_source f) v;
      `Vec v'
  | Ast.Scan f ->
      let v' = fresh ctx in
      line ctx "let %s = %s %s%s %s in" v' (op ctx "scan") (flops_arg ctx f.Fn.cost2)
        (fn2_source f) v;
      `Vec v'
  | Ast.Fold f ->
      let s = fresh ctx in
      line ctx "let %s = %s %s%s %s in" s (op ctx "fold") (flops_arg ctx f.Fn.cost2)
        (fn2_source f) v;
      `Scalar s
  | Ast.Rotate k ->
      let v' = fresh ctx in
      line ctx "let %s = %s %s(%d) %s in" v' (op ctx "rotate") (plain_arg ctx) k v;
      `Vec v'
  | Ast.Fetch f ->
      let v' = fresh ctx in
      line ctx "let __n = %s %s in" (op ctx "total") v;
      line ctx "let %s = %s %s%s %s in" v' (op ctx "fetch") (plain_arg ctx) (ifn_source f) v;
      `Vec v'
  | Ast.Send f -> (
      let v' = fresh ctx in
      line ctx "let __n = %s %s in" (op ctx "total") v;
      match ctx.target with
      | Spmd ->
          line ctx "let %s =" v';
          line ctx "  Scl_sim.Dvec.map ~flops_per_elem:0 (fun a -> a.(0))";
          line ctx "    (Scl_sim.Dvec.send (fun i -> [ %s i ]) %s)" (ifn_source f) v;
          line ctx "in";
          `Vec v'
      | Host ->
          line ctx "let %s = Scl.Communication.send_one ~exec %s %s in" v' (ifn_source f) v;
          `Vec v')
  | Ast.Iter_for (k, body) ->
      let v' = fresh ctx in
      line ctx "let %s =" v';
      line ctx "  let __r = ref %s in" v;
      line ctx "  for _ = 1 to %d do" k;
      let inner = { ctx with indent = ctx.indent ^ "    "; buf = ctx.buf } in
      (match emit_chain inner ~seg:false (Ast.to_chain body) "!__r" with
      | `Vec iv -> line ctx "    __r := %s" iv
      | `Scalar _ -> not_compilable "fold inside iterFor is not compilable");
      line ctx "  done;";
      line ctx "  !__r";
      line ctx "in";
      `Vec v'
  | Ast.Compose _ -> emit_chain ctx ~seg:false (Ast.to_chain stage) v
  | Ast.Foldr_compose _ ->
      not_compilable
        "foldr is inherently sequential: apply the map-distribution rewrite first (Rules.map_distribution)"
  | Ast.Split _ | Ast.Combine | Ast.Map_nested _ ->
      (* reachable only by calling emit_stage directly: emit_chain owns the
         segmented-region bookkeeping for these *)
      not_compilable "nested parallelism is compilable only as split .. mapn [maps] .. combine"

let generate ?(name = "run_pipeline") (e : Ast.expr) : string =
  let chain = Ast.to_chain e in
  (* dv0 is the scattered input binding; fresh names start above it *)
  let ctx = { buf = Buffer.create 1024; next = 1; indent = "      "; target = Spmd } in
  let result = emit_chain ctx ~seg:false chain "dv0" in
  let body = Buffer.contents ctx.buf in
  let header =
    Printf.sprintf
      "(* Generated by Transform.Codegen from the skeleton pipeline:\n\n\
      \     %s\n\n\
      \   Do not edit by hand: the test suite regenerates this file and\n\
      \   asserts it is unchanged. *)\n\n"
      (Ast.to_string e)
  in
  let result_type, final =
    match result with
    | `Vec v -> ("int array", Printf.sprintf "Scl_sim.Dvec.gather ~root:0 %s" v)
    | `Scalar s ->
        ("int", Printf.sprintf "if Machine.Comm.rank comm = 0 then Some %s else None" s)
  in
  Printf.sprintf
    "%slet %s (type s) (backend : s Machine.Backend.t) ~procs (input : int array) : %s * s =\n\
    \  Scl_sim.Spmd.run backend ~procs (fun comm ->\n\
    \      let dv0 =\n\
    \        Scl_sim.Dvec.scatter comm ~root:0\n\
    \          (if Machine.Comm.rank comm = 0 then Some input else None)\n\
    \      in\n\
     %s      %s)\n"
    header name result_type body final

(* Host-SCL target: the same pipeline over Scl.Par_array — the portability
   claim at the code-generation level. *)
let generate_host ?(name = "run_pipeline") (e : Ast.expr) : string =
  let chain = Ast.to_chain e in
  let ctx = { buf = Buffer.create 1024; next = 1; indent = "  "; target = Host } in
  let result = emit_chain ctx ~seg:false chain "dv0" in
  let body = Buffer.contents ctx.buf in
  let header =
    Printf.sprintf
      "(* Generated by Transform.Codegen (host-SCL target) from:\n\n\
      \     %s\n\n\
      \   Do not edit by hand: the test suite regenerates this file and\n\
      \   asserts it is unchanged. *)\n\n"
      (Ast.to_string e)
  in
  let result_type, final =
    match result with
    | `Vec v -> ("int array", Printf.sprintf "Scl.Par_array.to_array %s" v)
    | `Scalar s -> ("int", s)
  in
  Printf.sprintf
    "%slet %s ?(exec = Scl.Exec.sequential) (input : int array) : %s =\n\
    \  ignore exec;\n\
    \  let dv0 = Scl.Par_array.of_array input in\n\
     %s  %s\n"
    header name result_type body final

(* Flat host target: map/fold/scan chains of float registry primitives
   compiled to the unboxed [Scl.Flat_exec] kernels.  The payload functions
   must be [Flat_fns]-recognised (the flat kernels match the operator
   outside the loop, so only the closed operator vocabulary compiles); the
   last map of a run fuses into a following fold/scan (one data pass, no
   intermediate array).  The emitted function takes the flat backend as a
   value, so the same generated source runs sequentially or on the pool. *)
let generate_host_flat ?(name = "run_pipeline") (e : Ast.expr) : string =
  let chain = Ast.to_chain e in
  let buf = Buffer.create 1024 in
  let next = ref 1 in
  let fresh () =
    let v = Printf.sprintf "dv%d" !next in
    incr next;
    v
  in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf ("  " ^ s ^ "\n")) fmt in
  let f1 (f : Fn.t) =
    match Flat_fns.fun1_source f with
    | Some s -> "(" ^ s ^ ")"
    | None ->
        not_compilable "unary function %S has no flat operator form (flat target compiles %s)"
          f.Fn.name "the float registry primitives"
  in
  let f2 (f : Fn.t2) =
    match Flat_fns.fun2_source f with
    | Some s -> s
    | None -> not_compilable "binary function %S has no flat operator form" f.Fn.name2
  in
  let no_trailing rest =
    if rest <> [] then
      not_compilable "a fold may only appear as the last stage of a compiled pipeline"
  in
  let rec go stages v =
    match stages with
    | [] -> `Vec v
    | Ast.Id :: rest -> go rest v
    | Ast.Map f :: Ast.Fold op :: rest ->
        no_trailing rest;
        let s = fresh () in
        line "let %s = fx.Scl.Flat_exec.fmap_fold %s %s %s in" s (f1 f) (f2 op) v;
        `Scalar s
    | Ast.Map f :: Ast.Scan op :: rest ->
        let v' = fresh () in
        line "let %s = fx.Scl.Flat_exec.fmap_scan %s %s %s in" v' (f1 f) (f2 op) v;
        go rest v'
    | Ast.Map f :: rest ->
        let v' = fresh () in
        line "let %s = fx.Scl.Flat_exec.fmap %s %s in" v' (f1 f) v;
        go rest v'
    | Ast.Fold op :: rest ->
        no_trailing rest;
        let s = fresh () in
        line "let %s = fx.Scl.Flat_exec.ffold %s %s in" s (f2 op) v;
        `Scalar s
    | Ast.Scan op :: rest ->
        let v' = fresh () in
        line "let %s = fx.Scl.Flat_exec.fscan %s %s in" v' (f2 op) v;
        go rest v'
    | st :: _ ->
        not_compilable
          "stage %S has no flat-tier form (the flat target compiles map/fold/scan chains)"
          (Ast.to_string st)
  in
  let result = go chain "dv0" in
  let body = Buffer.contents buf in
  let header =
    Printf.sprintf
      "(* Generated by Transform.Codegen (flat host target) from:\n\n\
      \     %s\n\n\
      \   Unboxed Scl.Flat_exec kernels; pass ~fx:(Scl.Flat_exec.on_pool pool)\n\
      \   to run the same code multicore. Do not edit by hand: the test suite\n\
      \   regenerates this file and asserts it is unchanged. *)\n\n"
      (Ast.to_string e)
  in
  let result_type, final =
    match result with
    | `Vec v -> ("float array", Printf.sprintf "Scl.Flat.to_float_array %s" v)
    | `Scalar s -> ("float", s)
  in
  Printf.sprintf
    "%slet %s ?(fx = Scl.Flat_exec.sequential) (input : float array) : %s =\n\
    \  let dv0 = Scl.Flat.of_float_array input in\n\
     %s  %s\n"
    header name result_type body final

let compilable (e : Ast.expr) : bool =
  match generate e with
  | (_ : string) -> true
  | exception Not_compilable _ -> false
