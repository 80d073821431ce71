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
      them once the variable becomes shared. *)

val static_atomic :
  proved:(int -> bool) ->
  suppress_var:(int -> bool) ->
  Backend.packed ->
  Backend.packed
(** Statically-guided instrumentation pruning. [proved] answers label ids
    the static pre-pass proved atomic ({!Velodrome_statics} upstream —
    passed as plain predicates to keep this library free of a sim
    dependency); [suppress_var] answers variable ids whose accesses are
    safe to elide (thread-local or consistently lock-guarded).

    While a thread is inside an {e outermost} proved block, its reads and
    writes of suppressible variables are dropped; lock operations and
    begin/end markers are always forwarded, so every cross-thread ordering
    a dropped access could induce is still visible to the back-end through
    the guard's acquire/release edges. That argument needs the back-end to
    keep every such edge, which the atomicity engines stop doing at their
    first violation: they drop an edge that would close a cycle, and a
    later warning can then hinge on a suppressed access (program seed
    890525 of the generated-program differential, scheduler [Random 11],
    loses [gen.b1] at event 76). Suppression deliberately does not
    start at proved blocks nested inside unproved ones: warnings there are
    attributed to the unproved outermost label, which the soundness
    differential compares exactly. *)

val reentrant_locks : Backend.packed -> Backend.packed
(** Forward only outermost acquires/releases; nested pairs are dropped.
    Release events that would unbalance the count are forwarded untouched
    (they indicate an ill-formed stream, which back-ends may report). *)

val thread_local : Backend.packed -> Backend.packed
(** Drop accesses to variables still owned by a single thread. A variable
    becomes shared — permanently — the first time a second thread touches
    it; that first foreign access and everything after it is forwarded. *)
