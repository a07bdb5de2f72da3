(* Multi-producer multi-consumer FIFO used as the pool's injection queue.

   Contention here is rare (only external submissions and worker fallback
   paths), so a mutex-protected [Queue] is the right trade-off: simple and
   correct under the OCaml 5 memory model.  Nobody blocks on it: idle
   workers poll [try_pop] and park on the pool's own condition. *)

type 'a t = { q : 'a Queue.t; mutex : Mutex.t }

let create () = { q = Queue.create (); mutex = Mutex.create () }

let with_lock t f =
  Mutex.lock t.mutex;
  match f () with
  | v ->
      Mutex.unlock t.mutex;
      v
  | exception e ->
      Mutex.unlock t.mutex;
      raise e

let push t x = with_lock t (fun () -> Queue.push x t.q)

let try_pop t =
  with_lock t (fun () -> if Queue.is_empty t.q then None else Some (Queue.pop t.q))

let is_empty t = with_lock t (fun () -> Queue.is_empty t.q)
