(* Layer spans for the traced run, recorded from outside the library.

   One [buf] per rank. Spans carry a name, start, end and the id of the
   span that encloses them on the same rank; they are kept in memory and
   written out when the run ends. Per-name totals (busy time and calls)
   accumulate on every span; the span list itself is kept only while
   [keep] is set, so a long run holds one job's timeline, not all of
   them.

   [wrap] is the fabric layer: an [Engine.t] whose sends and receives are
   timed and counted before delegating to the real engine, the same shape
   as [Machine.Chaos]. Comm collectives built over it go through it, so
   fabric spans nest under the comm span that caused them. *)

open Machine

type span = { id : int; parent : int; name : string; start_ns : int64; stop_ns : int64 }

type buf = {
  rank : int;
  mutable keep : bool;
  mutable spans : span list;  (* newest first *)
  mutable stack : int list;  (* open span ids, innermost first *)
  mutable next_id : int;
  busy : (string, int ref) Hashtbl.t;  (* name -> total ns *)
  calls : (string, int ref) Hashtbl.t;
  mutable msgs : int;
  mutable bytes : int;
  mutable first_ns : int64;  (* first instruction of the rank's program *)
  mutable last_ns : int64;  (* the rank's return *)
}

let create rank =
  {
    rank;
    keep = false;
    spans = [];
    stack = [];
    next_id = 0;
    busy = Hashtbl.create 16;
    calls = Hashtbl.create 16;
    msgs = 0;
    bytes = 0;
    first_ns = 0L;
    last_ns = 0L;
  }

let bump tbl name n =
  match Hashtbl.find_opt tbl name with
  | Some r -> r := !r + n
  | None -> Hashtbl.add tbl name (ref n)

let span b name f =
  let id = b.next_id in
  b.next_id <- id + 1;
  let parent = match b.stack with p :: _ -> p | [] -> -1 in
  b.stack <- id :: b.stack;
  let start_ns = Obs.Clock.now_ns () in
  let close () =
    let stop_ns = Obs.Clock.now_ns () in
    b.stack <- (match b.stack with _ :: rest -> rest | [] -> []);
    bump b.busy name (Int64.to_int (Int64.sub stop_ns start_ns));
    bump b.calls name 1;
    if b.keep then b.spans <- { id; parent; name; start_ns; stop_ns } :: b.spans
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

let busy_ns b name = match Hashtbl.find_opt b.busy name with Some r -> !r | None -> 0
let calls b name = match Hashtbl.find_opt b.calls name with Some r -> !r | None -> 0

(* Computed wire size of a boxed payload: what [Marshal] would produce. *)
let marshal_size v = try Bytes.length (Marshal.to_bytes v [ Marshal.Closures ]) with _ -> 0

let wrap b (e : Engine.t) : Engine.t =
  let sent n =
    b.msgs <- b.msgs + 1;
    b.bytes <- b.bytes + n
  in
  {
    e with
    Engine.send =
      (fun ~dest ~tag v ->
        sent (marshal_size v);
        span b "fabric.send" (fun () -> e.Engine.send ~dest ~tag v));
    send_slice =
      (fun ~dest ~tag s ->
        sent (8 * Bigarray.Array1.dim s);
        span b "fabric.send" (fun () -> e.Engine.send_slice ~dest ~tag s));
    recv = (fun ?timeout ~src ~tag () -> span b "fabric.recv" (fun () -> e.Engine.recv ?timeout ~src ~tag ()));
    recv_any = (fun ?timeout ?tag () -> span b "fabric.recv" (fun () -> e.Engine.recv_any ?timeout ?tag ()));
    recv_slice =
      (fun ?timeout ~src ~tag () -> span b "fabric.recv" (fun () -> e.Engine.recv_slice ?timeout ~src ~tag ()));
  }

(* Run one rank's program over a traced engine, stamping its first
   instruction and its return. *)
let run_rank b (e : Engine.t) (program : Comm.t -> 'a) : 'a =
  b.first_ns <- Obs.Clock.now_ns ();
  let v = program (Comm.world (wrap b e)) in
  b.last_ns <- Obs.Clock.now_ns ();
  v

(* Chrome trace_event JSON: one "X" event per kept span, pid = job, tid =
   rank; the parent id rides in args. *)
let write_chrome path (jobs : buf array list) =
  let oc = open_out path in
  output_string oc "[";
  let first = ref true in
  let origin =
    List.fold_left
      (fun acc bufs ->
        Array.fold_left
          (fun acc b -> List.fold_left (fun acc s -> if acc = 0L || s.start_ns < acc then s.start_ns else acc) acc b.spans)
          acc bufs)
      0L jobs
  in
  List.iteri
    (fun job bufs ->
      Array.iter
        (fun b ->
          List.iter
            (fun s ->
              if not !first then output_string oc ",\n";
              first := false;
              Printf.fprintf oc
                "{\"name\":%S,\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
                s.name job b.rank
                (Int64.to_float (Int64.sub s.start_ns origin) /. 1e3)
                (Int64.to_float (Int64.sub s.stop_ns s.start_ns) /. 1e3)
                s.id s.parent)
            (List.rev b.spans))
        bufs)
    jobs;
  output_string oc "]\n";
  close_out oc
