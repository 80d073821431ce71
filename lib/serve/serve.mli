(** The multicore checking service: a domain pool over concurrent trace
    streams.

    One checker instance, many client streams — the "millions of users"
    architecture. Complete [.velb] (or textual) trace files are the unit
    of work, each checked by {!Velodrome_stream.Driver.check_file} —
    the function [check-trace] runs; the pool fans them out to [jobs]
    worker domains through a bounded {!Velodrome_util.Squeue} and merges
    the per-stream results back {e deterministically}.

    Design invariants, each pinned by a test:

    - {b Isolation.} Every stream is checked by a fresh engine instance
      over a fresh name environment, inside one worker domain. No
      analysis state is shared between domains; the only cross-domain
      values are the job descriptions and the finished, fully rendered
      results.
    - {b Determinism.} [on_result] is called on the calling domain, in
      submission order, regardless of completion order or [jobs] — so
      the output of [serve --jobs 8] is byte-identical to [--jobs 1] and
      to a sequential [check-trace] sweep over the same files.
    - {b Backpressure.} The job queue is bounded, and submission never
      runs more than [queue capacity + jobs] streams ahead of the
      ordered merge, so resident state (queued jobs, per-worker engine
      state, buffered results) stays bounded no matter how many streams
      are served. {!stats.max_resident} reports the observed high-water
      mark; the bench validator enforces the bound. *)

type result = {
  index : int;  (** submission index, 0-based *)
  path : string;
  outcome : Velodrome_stream.Driver.outcome;
  wait_ns : int64;  (** time spent queued before a worker picked it up *)
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
  queue_capacity : int;  (** actual (rounded) job-queue capacity *)
}

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val run :
  ?jobs:int ->
  ?queue_capacity:int ->
  ?format:Velodrome_stream.Driver.format ->
  backends:(Velodrome_trace.Names.t -> Velodrome_analysis.Backend.packed list) ->
  on_result:(result -> unit) ->
  string list ->
  stats
(** [run ~backends ~on_result paths] checks every file in [paths] and
    calls [on_result] for each, on the calling domain, in list order.
    [backends] is called once per stream, inside the worker domain, with
    that stream's name environment. [jobs] defaults to
    {!default_jobs}[ ()] clamped to the number of streams;
    [queue_capacity] defaults to [2 * jobs]; [format] (default [`Human])
    is the one format each stream's warnings are rendered in.
    Exceptions from [on_result] shut the pool down cleanly before
    propagating. *)

val expand_targets : string list -> (string list, string) Stdlib.result
(** CLI argument helper: each target is a trace file or a directory,
    scanned (sorted, non-recursive) for [*.velb] and [*.trace] entries.
    [Error] names the first unusable target or empty directory. *)
