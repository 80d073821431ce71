(** The multicore checking service: a domain pool over concurrent trace
    streams.

    One checker instance, many client streams — the "millions of users"
    architecture. Complete [.velb] (or textual) trace files are the unit
    of work, each checked by {!Velodrome_stream.Driver.check_file} —
    the function [check-trace] runs; the pool fans them out to [jobs]
    worker domains and merges the per-stream results back
    {e deterministically}. The coordination is one monitor ({!Make}):
    a mutex, two broadcast-only conditions and plain cells, instantiated
    with [Stdlib] here and with the model checker's traced primitives in
    the tests.

    Design invariants, each pinned by a test:

    - {b Isolation.} Every stream is checked by a fresh engine instance
      over a fresh name environment, inside one worker domain. No
      analysis state is shared between domains; the only cross-domain
      values are stream indices, timestamps and the finished, fully
      rendered results.
    - {b Determinism.} [on_result] is called on the calling domain, in
      submission order, outside the monitor's lock, regardless of
      completion order or [jobs] — so the output of [serve --jobs 8] is
      byte-identical to [--jobs 1] and to a sequential [check-trace]
      sweep over the same files.
    - {b Backpressure.} At most [queue_capacity] admitted streams wait
      for a worker, and admission never runs more than
      [queue_capacity + jobs] streams ahead of the ordered merge, so
      resident state (waiting streams, per-worker engine state, buffered
      results) stays bounded no matter how many streams are served.
      {!stats.max_resident} reports the observed high-water mark; the
      tests check the bound.
    - {b No dead worker.} A stream whose check raises becomes that
      stream's [Failed] outcome and the worker keeps serving. *)

type result = {
  index : int;  (** submission index, 0-based *)
  path : string;
  outcome : Velodrome_stream.Driver.outcome;
  wait_ns : int64;
      (** time from the stream's admission into the window to a worker
          taking it *)
  check_ns : int64;  (** worker time to open, replay and render *)
}

type stats = {
  streams : int;
  failed : int;  (** streams with a [Failed] outcome *)
  events : int;  (** events replayed, summed over streams *)
  warnings : int;  (** warnings reported, summed over streams *)
  elapsed_ns : int64;  (** wall time of the whole run, monotonic clock *)
  queue_wait_ns : int64;  (** sum of per-stream [wait_ns] *)
  max_resident : int;
      (** high-water mark of streams submitted but not yet merged;
          bounded by [queue_capacity + jobs] by construction *)
  jobs : int;  (** worker domains actually used *)
  queue_capacity : int;
      (** admitted streams that may wait for a worker: [2 * jobs] *)
}

val run :
  ?jobs:int ->
  ?format:Velodrome_stream.Driver.format ->
  backends:(Velodrome_trace.Names.t -> Velodrome_analysis.Backend.packed list) ->
  on_result:(result -> unit) ->
  string list ->
  stats
(** [run ~backends ~on_result paths] checks every file in [paths] and
    calls [on_result] for each, on the calling domain, in list order.
    [backends] is called once per stream, inside the worker domain, with
    that stream's name environment. [jobs] (default
    [Domain.recommended_domain_count ()]) is clamped to the number of
    streams, and that many worker domains are spawned; [format]
    (default [`Human]) is the one format each stream's warnings are
    rendered in. An exception raised while checking a stream becomes
    its [Failed] outcome, with {!Velodrome_stream.Driver.error_line}'s
    message and no events. Exceptions from [on_result] shut the pool
    down cleanly before propagating. *)

(** {1 The pool monitor} *)

module type PRIMS = sig
  module Mutex : sig
    type t

    val create : unit -> t
    val lock : t -> unit
    val unlock : t -> unit
  end

  module Condition : sig
    type t

    val create : unit -> t
    val wait : t -> Mutex.t -> unit
    val broadcast : t -> unit
  end

  module Plain : sig
    type 'a t

    val make : 'a -> 'a t
    val get : 'a t -> 'a
    val set : 'a t -> 'a -> unit
  end
  (** Cells read and written only under the monitor's mutex: [ref]s in
      production, traced accesses under the model checker. *)
end
(** What the monitor is written against: [Stdlib]'s [Mutex] and
    [Condition] fit, and so does [Velodrome_modelcheck.Shim]. The
    monitor only ever [broadcast]s. *)

module Make (P : PRIMS) : sig
  type 'r t
  (** The pool's shared state for [streams] streams, numbered from 0,
      whose results have type ['r]. *)

  val create : streams:int -> capacity:int -> jobs:int -> 'r t
  (** At most [capacity] (at least 1) admitted streams wait for a
      worker, and at most [capacity + jobs] are admitted but not yet
      emitted. *)

  val worker : 'r t -> check:(int -> 'r) -> recover:(int -> exn -> 'r) -> unit
  (** One worker's loop: take admitted streams in index order and post
      [check i] for each, or [recover i e] when [check i] raises [e];
      both run outside the lock. Returns once {!shut} is called. *)

  val merge : 'r t -> admit:(int -> unit) -> emit:(int -> 'r -> unit) -> int
  (** The calling side: admit streams as the bounds allow ([admit i]
      runs under the lock, when stream [i] enters the window) and call
      [emit i r] for every stream in index order, outside the lock.
      Returns after the last [emit], with the high-water mark of
      admitted but not yet emitted streams. *)

  val shut : 'r t -> unit
  (** Make every worker return, before or after [merge] finishes. *)
end

val expand_targets : string list -> (string list, string) Stdlib.result
(** CLI argument helper: each target is a trace file or a directory,
    scanned (sorted, non-recursive) for [*.velb] and [*.trace] entries.
    [Error] names the first unusable target or empty directory. *)
