(** Table 1: program sizes, running times, analysis slowdowns, and
    happens-before node statistics.

    As in the paper, the known non-atomic methods are excluded from
    checking (the tools are measured in the regime where most methods
    satisfy their specification, which stresses Velodrome with many small
    transactions). The base time is the simulator with no analysis
    attached; each slowdown is the ratio of the instrumented run to it.
    Node statistics replay the same recorded trace through
    {!Velodrome_core.Basic} ("Without Merge", Figure 2's [INS OUTSIDE])
    and the optimized {!Velodrome_core.Engine} ("With Merge", Figure 4). *)

type row = {
  workload : string;
  stmts : int;  (** program size (AST statements) *)
  events : int;  (** operations in the observed trace *)
  base_ms : float;
  slow_empty : float;
  slow_eraser : float;
  slow_atomizer : float;
  slow_velodrome : float;
  alloc_nomerge : int;
  alive_nomerge : int;
  alloc_merge : int;
  alive_merge : int;
}

val run :
  ?size:Velodrome_workloads.Workload.size ->
  ?seed:int ->
  ?repeats:int ->
  unit ->
  row list

val print : Format.formatter -> row list -> unit
