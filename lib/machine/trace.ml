(* Event trace of a simulation run, for debugging and for regenerating the
   paper's Figure-2-style step-by-step illustrations. *)

type kind =
  | Send of { dest : int; tag : int; bytes : int }
  | Recv of { src : int; tag : int; bytes : int }
  | Work of float
  | Note of string
  | Finish

type event = { time : float; proc : int; kind : kind }

type t = { mutable events : event list; enabled : bool }

let create () = { events = []; enabled = true }

let disabled () = { events = []; enabled = false }

let record t ~time ~proc kind = if t.enabled then t.events <- { time; proc; kind } :: t.events

let events t =
  List.stable_sort (fun a b -> compare (a.time, a.proc) (b.time, b.proc)) (List.rev t.events)

let length t = List.length t.events

let clear t = t.events <- []

let pp_kind ppf = function
  | Send { dest; tag; bytes } -> Fmt.pf ppf "send -> p%d (tag %d, %d B)" dest tag bytes
  | Recv { src; tag; bytes } -> Fmt.pf ppf "recv <- p%d (tag %d, %d B)" src tag bytes
  | Work d -> Fmt.pf ppf "work %.3g s" d
  | Note s -> Fmt.pf ppf "note: %s" s
  | Finish -> Fmt.pf ppf "finish"

let pp_event ppf e = Fmt.pf ppf "[%10.6f] p%-3d %a" e.time e.proc pp_kind e.kind

let pp ppf t = Fmt.pf ppf "@[<v>%a@]" (Fmt.list pp_event) (events t)

let notes t =
  List.filter_map (fun e -> match e.kind with Note s -> Some (e.time, e.proc, s) | _ -> None) (events t)

(* Chrome trace_event export: load the result into chrome://tracing or
   https://ui.perfetto.dev to see the simulated timeline.  We emit the
   JSON *array* format (valid input for both viewers).  Simulated seconds
   map to microsecond timestamps; each virtual processor becomes a thread
   of one process.  Work intervals are complete events ("ph":"X", stamped
   at interval start with a duration); sends/receives/notes are thread-
   scoped instants. *)
let to_chrome ?(pid = 0) t : Obs.Json.t =
  let open Obs.Json in
  let us x = x *. 1e6 in
  let ev ?(args = []) ?dur ~name ~ph ~ts ~tid () =
    Obj
      ([ ("name", String name); ("ph", String ph); ("ts", Float (us ts)) ]
      @ (match dur with Some d -> [ ("dur", Float (us d)) ] | None -> [])
      @ [ ("pid", Int pid); ("tid", Int tid) ]
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
            ("pid", Int pid);
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

let write_chrome ?pid path t = Obs.Json.to_file ~pretty:false path (to_chrome ?pid t)

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
