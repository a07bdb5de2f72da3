(* Typed fault exceptions shared by every execution engine.

   The taxonomy matters (see DESIGN.md, "Timeout vs Deadlock"):

   - [Timeout] is a *local, recoverable* condition: one receive's deadline
     elapsed before a matching message was available.  The receiver's
     program observes it at the [recv] call site and can retry, re-dispatch
     or give up — the rest of the machine keeps running.

   - [Deadlock] is a *global, fatal* condition: the engine has proved no
     processor can ever make progress.  It aborts the whole run.  One
     exception for every engine, so a caller of the engine-agnostic
     runner names it once.

   - [Crashed] models a fail-stop processor: raising it inside a rank's
     program (the only sanctioned use is [Chaos]'s scheduled crashes)
     terminates that rank silently — no result, no further sends, messages
     already addressed to it left undelivered — while the survivors keep
     running.  Recovery is the *protocol's* job (e.g. the dynamic farm's
     job reassignment), which is exactly the paper's stance that the
     coordination layer, not the user's computation, owns such concerns. *)

exception Timeout of string
(* A [recv ~timeout] deadline elapsed with no matching message. *)

exception Deadlock of string
(* No processor can make progress; the message names who waits on what. *)

exception Crashed of int
(* Fail-stop: the given rank stops executing at the raise point. *)

exception Unserializable of string
(* A payload crossed a process boundary that [Marshal] cannot ship
   (closure, custom block without serializers).  Raised at the *send*
   call site by engines whose ranks do not share a heap, so the
   programming error surfaces where it was made instead of as a raw
   [Marshal] exception mid-protocol on some other rank. *)

let () =
  Printexc.register_printer (function
    | Timeout msg -> Some (Printf.sprintf "Machine.Fault.Timeout(%s)" msg)
    | Deadlock msg -> Some (Printf.sprintf "Machine.Fault.Deadlock(%s)" msg)
    | Crashed rank -> Some (Printf.sprintf "Machine.Fault.Crashed(rank %d)" rank)
    | Unserializable msg -> Some (Printf.sprintf "Machine.Fault.Unserializable(%s)" msg)
    | _ -> None)
