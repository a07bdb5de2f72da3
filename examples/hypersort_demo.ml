(* Hyperquicksort on a 2-cube with a stage-by-stage trace — regenerates the
   paper's Figure 2 (32 values sorted on 4 processors, showing the local
   quicksort, the pivot broadcasts, and the exchange-merge rounds).

   Run with:  dune exec examples/hypersort_demo.exe
   Pass [--chrome FILE] to also export the trace as Chrome trace_event JSON
   (open in chrome://tracing or https://ui.perfetto.dev).
   Pass [--engine multicore] to run the same SPMD program on real OCaml 5
   domains instead of the simulator: identical sorted output, wall-clock
   stats instead of a simulated makespan.
   Pass [--engine procs] to run it on real forked OS processes talking
   over Unix-domain sockets (Machine.Procs): same output again, plus the
   message totals the socket fabric counted. *)

let chrome_out =
  let rec find = function
    | "--chrome" :: path :: _ -> Some path
    | _ :: rest -> find rest
    | [] -> None
  in
  find (Array.to_list Sys.argv)

let engine =
  let rec find = function
    | "--engine" :: e :: _ -> e
    | _ :: rest -> find rest
    | [] -> "sim"
  in
  find (Array.to_list Sys.argv)

let show a = String.concat " " (Array.to_list (Array.map string_of_int a))

(* The same program on a real engine: one runner, the backend picks the
   engine and the stats record. *)
let run_real backend ~title ~describe =
  let rng = Runtime.Xoshiro.of_seed 1995 in
  let data = Runtime.Xoshiro.int_array rng ~len:32 ~bound:100 in
  Format.printf "=== Hyperquicksort on %s ===@.@." title;
  Format.printf "unsorted input on rank 0:@.  [%s]@.@." (show data);
  let sorted, stats = Algorithms.Hyperquicksort.sort backend ~procs:4 data in
  Format.printf "sorted result gathered on rank 0:@.  [%s]@.@." (show sorted);
  Format.printf "%s@." (describe stats);
  let check = Array.copy data in
  Array.sort compare check;
  assert (sorted = check);
  Format.printf "verified against sequential sort. ok.@."

let () =
  (match engine with
  | "multicore" ->
      run_real (Machine.Backend.multicore ()) ~title:"4 real OCaml domains (multicore engine)"
        ~describe:(fun (s : Machine.Multicore.stats) ->
          Printf.sprintf "wall clock: %.6f s on %d domain(s); %d messages, %d sleeps" s.wall
            s.domains_used s.total_msgs s.sleeps);
      exit 0
  | "procs" ->
      run_real Machine.Backend.procs ~title:"4 forked OS processes (procs engine)"
        ~describe:(fun (s : Machine.Procs.stats) ->
          Printf.sprintf "wall clock: %.6f s on %d process(es); %d messages over the sockets"
            s.wall s.procs_used s.total_msgs);
      exit 0
  | "sim" -> ()
  | other ->
      Format.eprintf "unknown --engine %S (expected sim, multicore or procs)@." other;
      exit 2);
  let rng = Runtime.Xoshiro.of_seed 1995 in
  let data = Runtime.Xoshiro.int_array rng ~len:32 ~bound:100 in
  Format.printf "=== Hyperquicksort on a 2-dimensional hypercube (Figure 2) ===@.@.";
  Format.printf "unsorted input on processor 0:@.  [%s]@.@." (show data);
  (* One traced run: its notes are the stages, its events the timeline. *)
  let trace = Machine.Trace.create () in
  let sorted, stats =
    Algorithms.Hyperquicksort.sort (Machine.Backend.sim ~trace ()) ~procs:4 data
  in
  let last_proc = ref (-1) in
  List.iter
    (fun (time, proc, msg) ->
      if proc <> !last_proc then Format.printf "@.";
      last_proc := proc;
      Format.printf "[t=%8.6fs] p%d  %s@." time proc msg)
    (Machine.Trace.notes trace);
  Format.printf "@.sorted result gathered on processor 0:@.  [%s]@.@." (show sorted);
  Format.printf "simulated makespan: %.6f s on the AP1000 cost model@." stats.Machine.Sim.makespan;
  Format.printf "messages: %d (%d bytes), barrier-free (pairwise exchanges only)@."
    stats.Machine.Sim.total_msgs stats.Machine.Sim.total_bytes;
  Format.printf "@.timeline:@.%a@.@." (Machine.Trace.pp_gantt ~width:72) trace;
  (match chrome_out with
  | Some path ->
      Machine.Trace.write_chrome path trace;
      Format.printf "chrome trace written to %s (load in chrome://tracing or Perfetto)@.@." path
  | None -> ());
  let check = Array.copy data in
  Array.sort compare check;
  assert (sorted = check);
  Format.printf "verified against sequential sort. ok.@."
