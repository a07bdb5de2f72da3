(* Event trace of a run, recorded around each rank's engine ([run]), for
   debugging and for regenerating the paper's Figure-2-style step-by-step
   illustrations. *)

type kind =
  | Send of { dest : int; tag : int; bytes : int }
  | Recv of { src : int; tag : int; bytes : int }
  | Work of float
  | Note of string
  | Finish

type event = { time : float; proc : int; kind : kind }

type t = { mutable events : event list }

let create () = { events = [] }

let events t =
  List.stable_sort (fun a b -> compare (a.time, a.proc) (b.time, b.proc)) (List.rev t.events)

let notes t =
  List.filter_map (fun e -> match e.kind with Note s -> Some (e.time, e.proc, s) | _ -> None) (events t)

(* A boxed message's bytes as the simulator prices them: its [Marshal]
   image (a slice's are its [size_in_bytes]). *)
let marshalled v = Bytes.length (Marshal.to_bytes v [])

(* One rank's recorder.  [sizes] holds the bytes of every boxed send of
   the run not yet received, in send order, per (src, dest, tag): by
   per-(source, tag) FIFO a receive on that channel gets the oldest of
   them, the size of the image its payload was copied from, so it is
   priced without marshalling the payload again.  [blind] holds the ranks
   that have taken a message with an any-tag [recv_any], which cannot
   name the channel it emptied: they price their receives by marshalling
   from then on, as does a receive whose channel holds no size. *)
let record t sizes blind program (e : Engine.t) =
  let proc = e.Engine.rank in
  let stamp kind = t.events <- { time = e.Engine.time (); proc; kind } :: t.events in
  let sent ~dest ~tag bytes =
    if not (Hashtbl.mem blind dest) then begin
      let key = (proc, dest, tag) in
      match Hashtbl.find_opt sizes key with
      | Some q -> Queue.push bytes q
      | None ->
          let q = Queue.create () in
          Queue.push bytes q;
          Hashtbl.add sizes key q
    end;
    bytes
  in
  let received ~src ~tag v =
    match Hashtbl.find_opt sizes (src, proc, tag) with
    | Some q when not (Queue.is_empty q || Hashtbl.mem blind proc) -> Queue.pop q
    | _ -> marshalled v
  in
  (* A receive that expires is recorded at its expiry. *)
  let receive f =
    try f () with Fault.Timeout _ as x ->
      stamp (Note "recv timeout");
      raise x
  in
  let traced =
    {
      e with
      Engine.send =
        (fun ~dest ~tag v ->
          e.Engine.send ~dest ~tag v;
          stamp (Send { dest; tag; bytes = sent ~dest ~tag (marshalled v) }));
      send_slice =
        (fun ~dest ~tag s ->
          e.Engine.send_slice ~dest ~tag s;
          stamp (Send { dest; tag; bytes = Bigarray.Array1.size_in_bytes s }));
      recv =
        (fun ?timeout ~src ~tag () ->
          let v = receive (fun () -> e.Engine.recv ?timeout ~src ~tag ()) in
          stamp (Recv { src; tag; bytes = received ~src ~tag v });
          v);
      recv_slice =
        (fun ?timeout ~src ~tag () ->
          let s = receive (fun () -> e.Engine.recv_slice ?timeout ~src ~tag ()) in
          stamp (Recv { src; tag; bytes = Bigarray.Array1.size_in_bytes s });
          s);
      recv_any =
        (fun ?timeout ?tag () ->
          let ((src, v) as r) = receive (fun () -> e.Engine.recv_any ?timeout ?tag ()) in
          let bytes =
            match tag with
            | Some tag -> received ~src ~tag v
            | None ->
                Hashtbl.replace blind proc ();
                marshalled v
          in
          stamp (Recv { src; tag = Option.value tag ~default:(-1); bytes });
          r);
      work =
        (fun d ->
          e.Engine.work d;
          stamp (Work d));
      note =
        (fun msg ->
          e.Engine.note msg;
          stamp (Note msg));
    }
  in
  match program traced with
  | r ->
      stamp Finish;
      r
  | exception (Fault.Crashed _ as x) ->
      (* fail-stop: the rank ends here *)
      stamp (Note "crashed");
      stamp Finish;
      raise x

(* Applied once per run (as [Spmd] does), so the run's ranks share one
   table of send sizes and a failed run's leftovers never reach the next. *)
let run t program = record t (Hashtbl.create 64) (Hashtbl.create 1) program

(* Chrome trace_event export: load the result into chrome://tracing or
   https://ui.perfetto.dev to see the simulated timeline.  We emit the
   JSON *array* format (valid input for both viewers).  Simulated seconds
   map to microsecond timestamps; each virtual processor becomes a thread
   of process 0.  Work intervals are complete events ("ph":"X", stamped
   at interval start with a duration); sends/receives/notes are thread-
   scoped instants. *)
let to_chrome t : Obs.Json.t =
  let open Obs.Json in
  let us x = x *. 1e6 in
  let ev ?(args = []) ?dur ~name ~ph ~ts ~tid () =
    Obj
      ([ ("name", String name); ("ph", String ph); ("ts", Float (us ts)) ]
      @ (match dur with Some d -> [ ("dur", Float (us d)) ] | None -> [])
      @ [ ("pid", Int 0); ("tid", Int tid) ]
      @ (match ph with "i" -> [ ("s", String "t") ] | _ -> [])
      @ match args with [] -> [] | args -> [ ("args", Obj args) ])
  in
  let evs = events t in
  let nprocs = List.fold_left (fun acc e -> max acc (e.proc + 1)) 0 evs in
  let thread_names =
    List.init nprocs (fun p ->
        Obj
          [
            ("name", String "thread_name");
            ("ph", String "M");
            ("pid", Int 0);
            ("tid", Int p);
            ("args", Obj [ ("name", String (Printf.sprintf "p%d" p)) ]);
          ])
  in
  let body =
    List.map
      (fun e ->
        match e.kind with
        | Work d -> ev ~name:"work" ~ph:"X" ~ts:(e.time -. d) ~dur:d ~tid:e.proc ()
        | Send { dest; tag; bytes } ->
            ev ~name:"send" ~ph:"i" ~ts:e.time ~tid:e.proc
              ~args:[ ("dest", Int dest); ("tag", Int tag); ("bytes", Int bytes) ]
              ()
        | Recv { src; tag; bytes } ->
            ev ~name:"recv" ~ph:"i" ~ts:e.time ~tid:e.proc
              ~args:[ ("src", Int src); ("tag", Int tag); ("bytes", Int bytes) ]
              ()
        | Note s -> ev ~name:s ~ph:"i" ~ts:e.time ~tid:e.proc ()
        | Finish -> ev ~name:"finish" ~ph:"i" ~ts:e.time ~tid:e.proc ())
      evs
  in
  List (thread_names @ body)

let write_chrome path t = Obs.Json.to_file ~pretty:false path (to_chrome t)

(* ASCII Gantt chart: one row per processor, time left to right.  Work
   intervals are drawn as '=', sends as '>', receives as '<', finishes as
   '#'; '.' is idle.  Intended for small traces (demos, debugging). *)
let pp_gantt ?(width = 72) ppf t =
  let evs = events t in
  if evs = [] then Fmt.pf ppf "(empty trace)@."
  else begin
    let t_end = List.fold_left (fun acc e -> Float.max acc e.time) 0.0 evs in
    let procs = 1 + List.fold_left (fun acc e -> max acc e.proc) 0 evs in
    let t_end = if t_end <= 0.0 then 1.0 else t_end in
    let col time = min (width - 1) (int_of_float (time /. t_end *. float_of_int (width - 1))) in
    let rows = Array.init procs (fun _ -> Bytes.make width '.') in
    List.iter
      (fun e ->
        let row = rows.(e.proc) in
        match e.kind with
        | Work d ->
            (* the event is stamped at the end of the work interval *)
            let c1 = col e.time and c0 = col (e.time -. d) in
            for c = c0 to c1 do
              Bytes.set row c '='
            done
        | Send _ -> Bytes.set row (col e.time) '>'
        | Recv _ -> Bytes.set row (col e.time) '<'
        | Finish -> Bytes.set row (col e.time) '#'
        | Note _ -> ())
      evs;
    Fmt.pf ppf "@[<v>time 0 %s %.6gs@," (String.make (width - 14) '-') t_end;
    Array.iteri (fun p row -> Fmt.pf ppf "p%-3d %s@," p (Bytes.to_string row)) rows;
    Fmt.pf ppf "     (= work, > send, < recv, # finish)@]"
  end
