(* Stream (task-parallel) skeletons: ordered pipelines of stages over a
   finite stream of jobs.

   The paper's related-work section contrasts SCL with P3L, whose skeletons
   compose along single streams, and notes that "parallel composition of
   concurrent tasks can be supported by applying a concurrent constraint
   programming model on top of the SCL layer".  This module provides that
   task-parallel layer in its standard modern form: a pipe combinator whose
   stages are farms of worker domains connected by bounded queues, with
   output order preserved by sequence numbers.

   Stages communicate through Mpmc_queue; each stage closes its output once
   all its workers have drained the input, so termination cascades down the
   pipe.  The final collector reorders by sequence number, so [run] is
   extensionally just [List.map] of the composed stage functions — that is
   the law the tests check. *)

type ('a, 'b) stage = { workers : int; fn : 'a -> 'b }

type ('a, 'b) t =
  | Single : ('a, 'b) stage -> ('a, 'b) t
  | Compose : ('a, 'b) t * ('b, 'c) t -> ('a, 'c) t

let stage ?(workers = 1) fn =
  if workers <= 0 then invalid_arg "Stream_skel.stage: workers must be positive";
  Single { workers; fn }

let farm ~workers fn = stage ~workers fn

let ( >>> ) a b = Compose (a, b)

let rec stages : type a b. (a, b) t -> int = function
  | Single _ -> 1
  | Compose (x, y) -> stages x + stages y

(* The sequential meaning of a pipe. *)
let rec apply : type a b. (a, b) t -> a -> b =
 fun pipe x ->
  match pipe with
  | Single { fn; _ } -> fn x
  | Compose (f, g) -> apply g (apply f x)

(* A tagged job travelling the pipe.  The payload type changes per segment,
   so queues are built per segment inside [run]. *)
exception Stage_failure of exn * Printexc.raw_backtrace

(* Launch the worker domains of one stage reading (seq, 'a) and writing
   (seq, 'b), adding them to [spawned]; close the output when the last
   worker finishes. *)
let launch_stage (type a b) ({ workers; fn } : (a, b) stage)
    (input : (int * a) Runtime.Mpmc_queue.t) (output : (int * b) Runtime.Mpmc_queue.t)
    (failure : (exn * Printexc.raw_backtrace) option Atomic.t) (spawned : unit Domain.t list ref)
    : unit =
  let remaining = Atomic.make workers in
  let worker () =
    (try
       let rec loop () =
         match Runtime.Mpmc_queue.pop input with
         | seq, x ->
             (match fn x with
             | y -> Runtime.Mpmc_queue.push output (seq, y)
             | exception e ->
                 let bt = Printexc.get_raw_backtrace () in
                 (* First failure wins; note it and stop consuming. *)
                 ignore (Atomic.compare_and_set failure None (Some (e, bt)));
                 raise Exit);
             loop ()
         | exception Runtime.Mpmc_queue.Closed -> ()
       in
       loop ()
     with Exit -> ());
    if Atomic.fetch_and_add remaining (-1) = 1 then
      (* last worker out: propagate end-of-stream *)
      try Runtime.Mpmc_queue.close output with Runtime.Mpmc_queue.Closed -> ()
  in
  for _ = 1 to workers do
    spawned := Domain.spawn worker :: !spawned
  done

(* Wire a pipe between an input queue and a freshly allocated output queue,
   spawning all stage domains into [spawned]; returns the output queue. *)
let rec wire : type a b.
    (a, b) t ->
    (int * a) Runtime.Mpmc_queue.t ->
    (exn * Printexc.raw_backtrace) option Atomic.t ->
    unit Domain.t list ref ->
    (int * b) Runtime.Mpmc_queue.t =
 fun pipe input failure spawned ->
  match pipe with
  | Single st ->
      let output = Runtime.Mpmc_queue.create () in
      launch_stage st input output failure spawned;
      output
  | Compose (f, g) -> wire g (wire f input failure spawned) failure spawned

let run (type a b) (pipe : (a, b) t) (inputs : a list) : b list =
  let n = List.length inputs in
  if n = 0 then []
  else begin
    let failure = Atomic.make None in
    let source = Runtime.Mpmc_queue.create () in
    let spawned = ref [] in
    let sink =
      (* A failed spawn: closing the source ends every stage spawned so far
         (end-of-stream cascades down the pipe), so all can be joined. *)
      try wire pipe source failure spawned
      with e ->
        Runtime.Mpmc_queue.close source;
        List.iter Domain.join !spawned;
        raise e
    in
    (* Feed the source; jobs are tagged with their position. *)
    List.iteri (fun i x -> Runtime.Mpmc_queue.push source (i, x)) inputs;
    Runtime.Mpmc_queue.close source;
    (* Collect and reorder. *)
    let slots : b option array = Array.make n None in
    let collected = ref 0 in
    (try
       while !collected < n do
         let seq, y = Runtime.Mpmc_queue.pop sink in
         slots.(seq) <- Some y;
         incr collected
       done
     with Runtime.Mpmc_queue.Closed -> ());
    List.iter Domain.join !spawned;
    (match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace (Stage_failure (e, bt)) bt
    | None -> ());
    if !collected < n then failwith "Stream_skel.run: pipeline closed early without failure";
    Array.to_list (Array.map Option.get slots)
  end

let run_array pipe inputs = Array.of_list (run pipe (Array.to_list inputs))
