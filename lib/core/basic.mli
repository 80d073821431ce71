(** The initial analysis of Figure 2 — a deliberately independent
    implementation.

    One node is allocated per transaction, including a fresh unary
    transaction for every operation outside an atomic block (the naive
    [INS OUTSIDE] rule). No steps, no timestamps, no merging, no blame;
    cycle detection is a plain DFS reachability query over an explicit
    adjacency structure rather than {!Pool}'s incremental ancestor sets.

    It has two roles. It is Table 1's "Without Merge" baseline: its
    allocation counts are the nodes Figure 2 allocates. And it is the
    reference for differential testing: on any trace, {!Basic} and
    {!Engine} must agree both on {e whether} the trace is serializable and
    on the {e index} of the first violating event. Finished nodes without
    predecessors are collected by reference counting (Section 4.1). *)

open Velodrome_trace
open Velodrome_analysis

type t

val create : Names.t -> t
val on_event : t -> Event.t -> unit
val finish : t -> unit
val warnings : t -> Warning.t list
val has_error : t -> bool
val cycles_found : t -> int
val first_error_index : t -> int option
val nodes_allocated : t -> int
val nodes_max_alive : t -> int

val backend : unit -> (module Backend.S)
(** Named ["velodrome-basic"]. *)
