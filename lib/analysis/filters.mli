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
    begin/end markers are always forwarded. Suppression deliberately does
    not start at proved blocks nested inside unproved ones: warnings
    there are attributed to the unproved outermost label, which the
    soundness differential compares exactly.

    Contract: every back-end reports the same warnings outside proved
    blocks with and without the filter, provided [suppress_var] answers
    only variables that are race-free (thread-local, consistently
    guarded, or in no static race pair) {e and} whose every access, in
    every thread, lies inside an outermost proved block — the predicates
    {!Velodrome_statics.Statics.filter_predicates} returns. A dropped
    access can then only end an ordering between two proved
    transactions, never one to an unproved transaction, so no warning
    outside proved blocks can hinge on it, even after an atomicity engine
    has dropped a cycle-closing edge at its first violation. Race-freedom
    alone is not enough: program seeds 890525 (scheduler [Random 11]) and
    316 of the generated-program differential lose a warning when a
    suppressed access in a proved block carried the only remaining
    ordering to an unproved one. *)

val reentrant_locks : Backend.packed -> Backend.packed
(** Forward only outermost acquires/releases; nested pairs are dropped.
    Release events that would unbalance the count are forwarded untouched
    (they indicate an ill-formed stream, which back-ends may report). *)

val thread_local : Backend.packed -> Backend.packed
(** Drop accesses to variables still owned by a single thread. A variable
    becomes shared — permanently — the first time a second thread touches
    it; that first foreign access and everything after it is forwarded. *)
