(** Random well-formed traces.

    Drives the property-based tests: the soundness/completeness theorem is
    checked by comparing the online engines against the offline oracle on
    traces drawn from this generator. The generator maintains the global
    lock and block state while emitting, so every produced trace satisfies
    {!Trace.check} by construction. Determinism comes from the caller's
    {!Velodrome_util.Rng.t}. *)

type config = {
  threads : int;
  vars : int;
  locks : int;
  labels : int;
  steps : int;  (** number of generation steps (≈ trace length) *)
  w_read : int;
  w_write : int;
  w_acquire : int;
  w_release : int;
  w_begin : int;
  w_end : int;  (** relative weights of each operation kind *)
  max_depth : int;  (** maximum atomic-block nesting *)
  close_trailing : bool;
      (** when true, close all open blocks and release all held locks at
          the end, so the trace has no truncated transactions *)
}

val default : config
(** 3 threads, 4 vars, 2 locks, 40 steps, balanced weights, depth 2,
    trailing closes on. *)

val small : config
(** 2–3 ops per thread; suitable for the exponential brute-force oracle. *)

val dense : config
(** High contention: 4 threads over 2 vars and 1 lock, 60 steps, nesting
    depth 3. The shape of [velodrome fuzz --dense]. *)

val run : Velodrome_util.Rng.t -> config -> Trace.t
