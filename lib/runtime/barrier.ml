(* Sense-reversing barrier for a fixed party count.

   Invariant: [count] is the number of parties that have arrived in the
   current phase; the last arrival resets [count] and flips [sense], which
   releases everyone waiting on the old sense.  Once [released] is set,
   no party waits again. *)

type t = {
  parties : int;
  mutable count : int;
  mutable sense : bool;
  mutable released : bool;
  mutex : Mutex.t;
  cond : Condition.t;
}

let create parties =
  if parties <= 0 then invalid_arg "Barrier.create: parties must be positive";
  {
    parties;
    count = 0;
    sense = false;
    released = false;
    mutex = Mutex.create ();
    cond = Condition.create ();
  }

let parties t = t.parties

let await t =
  Mutex.lock t.mutex;
  if not t.released then begin
    let my_sense = t.sense in
    t.count <- t.count + 1;
    if t.count = t.parties then begin
      t.count <- 0;
      t.sense <- not t.sense;
      Condition.broadcast t.cond
    end
    else
      while t.sense = my_sense && not t.released do
        Condition.wait t.cond t.mutex
      done
  end;
  Mutex.unlock t.mutex

let release t =
  Mutex.protect t.mutex (fun () ->
      t.released <- true;
      Condition.broadcast t.cond)
