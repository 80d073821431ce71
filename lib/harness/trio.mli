(** The three-way engine differential, run by {!Gate.run} (and so by
    [analyze --gate] and the gate tests) and [fuzz]. One trace is replayed through the
    graph {!Velodrome_core.Engine}, the Figure 2 {!Velodrome_core.Basic}
    and the vector-clock {!Velodrome_core.Aero}: all three must agree on
    the verdict and the first violating event, and Aero and Basic on
    every warning (all fields but the back-end name and the refuted
    list; the cycle compared as data). The engine's blame pass
    attributes labels differently by design. *)

val check :
  Velodrome_trace.Names.t -> Velodrome_trace.Trace.t -> (bool, string) result
(** [Ok violates] when the engines agree, else the first disagreement. *)
