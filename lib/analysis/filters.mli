(** Event-stream filters (Section 5).

    RoadRunner pre-processes the event stream before back-ends see it:

    - re-entrant (and hence redundant) lock acquires and releases are
      removed, so back-ends see only the outermost acquire/release of each
      lock by each thread;
    - operations on data that has so far been touched by a single thread
      can be filtered out. This dramatically improves performance but is
      {e slightly unsound} (the paper cites Eraser for the same
      observation): the accesses performed while the variable was still
      thread-local are lost, so an analysis cannot see conflicts involving
      them once the variable becomes shared.

    No filter drops events by static verdict: [check-trace] and [serve]
    get traces without a program, and where a program was at hand, such
    a filter made replay slower, not faster (DESIGN.md §5). *)

val reentrant_locks : Backend.packed -> Backend.packed
(** Forward only outermost acquires/releases; nested pairs are dropped.
    Release events that would unbalance the count are forwarded untouched
    (they indicate an ill-formed stream, which back-ends may report). *)

val thread_local : Backend.packed -> Backend.packed
(** Drop accesses to variables still owned by a single thread. A variable
    becomes shared — permanently — the first time a second thread touches
    it; that first foreign access and everything after it is forwarded. *)
