(** Offline serializability oracle.

    Ground truth for the online engines. Two independent decision
    procedures are provided:

    - {!serializable} builds the transactional conflict graph exactly as in
      the paper's definition (Section 3): an edge [A -> B] whenever some
      operation of [A] precedes and conflicts with some operation of [B].
      The trace is serializable iff this graph is acyclic (Bernstein,
      Hadzilacos, Goodman — the result Theorem 1 leans on). Quadratic in
      trace length; intended for tests and moderate traces.

    - {!serializable_by_swaps} explores every trace reachable by swapping
      adjacent {e non-conflicting} operations — the literal definition of
      trace equivalence in Section 2 — and reports whether any reachable
      trace is serial. Exponential; refuses traces longer than the given
      bound. This checks the conflict-graph characterization itself rather
      than assuming it.

    {!self_serializable_by_swaps} supports validating blame assignment: a
    blamed transaction must not be self-serializable (Section 4.3). *)

open Velodrome_trace

val serializable : Trace.t -> bool

val witness_cycle : Trace.t -> Txn.t list option
(** Some cycle of transactions ([A -> B -> ... -> A], last edge implicit)
    when the trace is not serializable. *)

val serializable_by_swaps : ?max_ops:int -> Trace.t -> bool option
(** [None] when the trace exceeds [max_ops] (default 10). *)

val self_serializable_by_swaps :
  ?max_ops:int -> Trace.t -> txn:int -> bool option
(** Whether some equivalent trace executes transaction [txn] (an id from
    {!Txn.segment}) contiguously. [None] when too large. *)
