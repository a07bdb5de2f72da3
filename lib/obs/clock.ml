(* Monotonic time source for span timers.

   bechamel's tiny C stub (clock_gettime(CLOCK_MONOTONIC)) is the only
   monotonic clock the image ships; wall clocks (Unix.gettimeofday) step
   under NTP and would corrupt span durations. *)

let now_ns () : int64 = Monotonic_clock.now ()

let ns_since (t0 : int64) : int = Int64.to_int (Int64.sub (now_ns ()) t0)

let ns_to_s ns = float_of_int ns *. 1e-9
