(* Traced synchronization primitives (the DSCheck idea, rebuilt in-tree
   and dependency-free). Every operation — cell access, mutex,
   condition — performs one effect carrying:

   - a printable tag (for counterexample schedules),
   - the objects it touches and whether it writes them (the DPOR
     dependency relation),
   - an enabledness guard (blocking is modelled as a transition that is
     disabled until some other transition's side effect flips the
     guard: a held mutex, an unbumped condition generation),
   - the operation itself, run only when the explorer schedules it.

   The explorer ([Explore]) catches the effect, parks the continuation
   and decides when — and in which interleavings — the operation
   executes. Code under test is therefore written once against this API
   (structurally identical to the [Stdlib] modules, so a functor like
   [Serve.Make] accepts either) and gains exhaustive schedule coverage
   without a single source change.

   Everything here assumes the single-domain cooperative world of the
   explorer: backing state is plain mutable fields, made safe because
   operations only ever run one at a time, between scheduling points.
   The explored semantics is sequential consistency; see DESIGN
   "Model-checked concurrency" for why that is the right model for the
   serve pool's monitor. *)

type access = { obj : int; write : bool }

type _ Effect.t +=
  | Op : {
      tag : string;
      accesses : access list;
      enabled : unit -> bool;
      execute : unit -> 'r;
    }
      -> 'r Effect.t

(* Object ids are allocation-ordered within one run; [reset] is called by
   the explorer before every run so ids (and thus tags and schedules)
   are stable across replays. *)
let next_id = ref 0
let reset () = next_id := 0

let fresh_id () =
  let i = !next_id in
  incr next_id;
  i

let always = fun () -> true

let op ?(enabled = always) ~tag ~accesses execute =
  Effect.perform (Op { tag; accesses; enabled; execute })

let rd obj = { obj; write = false }
let wr obj = { obj; write = true }

module Plain = struct
  type 'a t = { id : int; mutable v : 'a }

  let make v = { id = fresh_id (); v }

  let get c =
    op ~tag:(Printf.sprintf "read p%d" c.id) ~accesses:[ rd c.id ] (fun () ->
        c.v)

  let set c v =
    op ~tag:(Printf.sprintf "write p%d" c.id) ~accesses:[ wr c.id ] (fun () ->
        c.v <- v)
end

module Mutex = struct
  type t = { id : int; mutable held : bool }

  let create () = { id = fresh_id (); held = false }

  (* Acquisition is one guarded transition: disabled while held, so a
     blocked locker simply cannot be scheduled until the unlock runs. *)
  let lock m =
    op
      ~tag:(Printf.sprintf "lock m%d" m.id)
      ~accesses:[ wr m.id ]
      ~enabled:(fun () -> not m.held)
      (fun () -> m.held <- true)

  let unlock m =
    op
      ~tag:(Printf.sprintf "unlock m%d" m.id)
      ~accesses:[ wr m.id ]
      (fun () -> m.held <- false)
end

module Condition = struct
  (* A condition is a broadcast generation counter: waiters atomically
     release the mutex and remember the generation, then reacquire once
     a broadcast has bumped it. This models Stdlib.Condition precisely
     for broadcast-only users (the serve pool never uses [signal]) and
     keeps lost wakeups observable: a broadcast that happens before the
     release step does not bump the waiter's remembered generation, so
     the waiter sleeps forever and the explorer reports the deadlock.
     Waking and reacquiring are one transition: a woken waiter does
     nothing observable before it holds the mutex, and generations only
     grow, so a separate wake step would only multiply schedules that
     differ in when it is noted. *)
  type t = { id : int; mutable gen : int }

  let create () = { id = fresh_id (); gen = 0 }

  let wait (c : t) (m : Mutex.t) =
    let g =
      op
        ~tag:(Printf.sprintf "wait-release c%d/m%d" c.id m.id)
        ~accesses:[ wr m.id; rd c.id ]
        (fun () ->
          m.held <- false;
          c.gen)
    in
    op
      ~tag:(Printf.sprintf "wait-relock c%d/m%d" c.id m.id)
      ~accesses:[ rd c.id; wr m.id ]
      ~enabled:(fun () -> c.gen > g && not m.held)
      (fun () -> m.held <- true)

  let broadcast c =
    op
      ~tag:(Printf.sprintf "broadcast c%d" c.id)
      ~accesses:[ wr c.id ]
      (fun () -> c.gen <- c.gen + 1)
end
