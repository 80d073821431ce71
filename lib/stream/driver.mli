(** The streaming replay driver, and the one per-file check that both
    [check-trace] and [serve] run.

    Feeds every event of a {!Source.t} to a set of analysis back-ends,
    exactly as {!Velodrome_analysis.Backend.run_events} does for
    in-memory traces — same event order, same per-event back-end order,
    same final [finish]/[warnings] sequence — so verdicts are identical
    by construction; the differential property tests pin this down.

    Memory stays bounded by the analyses' own state: the driver holds
    one event at a time and never buffers the stream.

    Every event is checked for well-formedness
    ({!Velodrome_trace.Trace.Checker}) before any back-end sees it, so
    the analyses only ever consume a well-formed prefix — the traces
    their soundness and completeness statements quantify over.

    An optional [progress] callback observes engine statistics every
    [every] events (default 100_000) and once more after the final
    event, for long-running ingestion jobs (events consumed, OCaml GC
    pressure, and — when the caller supplies a probe — live
    happens-before nodes, the paper's reference-counting GC metric). *)

open Velodrome_analysis

type stats = {
  events : int;  (** events consumed so far *)
  warnings : int;  (** warnings raised so far, across back-ends *)
  live_nodes : int option;
      (** live happens-before graph nodes, from the [live_nodes] probe *)
  allocated_words : float;  (** total words allocated by the program *)
  minor_collections : int;  (** OCaml minor GC cycles so far *)
  major_collections : int;  (** OCaml major GC cycles so far *)
}

exception Interrupted of { events : int; error : exn }
(** Raised when the stream fails mid-way (a truncated [.velb], a
    malformed text line, an ill-formed operation): [events] counts the
    events already replayed — the back-ends have been [finish]ed and
    their warnings for the valid prefix are intact — and [error] is the
    original exception ({!Velodrome_trace.Trace_codec.Corrupt},
    {!Velodrome_trace.Trace_io.Syntax_error} or
    {!Velodrome_trace.Trace.Ill_formed}, whose index is [events]). A
    final progress tick is emitted before the raise, so [--stats]
    observers see the partial totals. *)

val run :
  ?progress:(stats -> unit) ->
  ?every:int ->
  ?live_nodes:(unit -> int) ->
  Backend.packed list ->
  Source.t ->
  int * Warning.t list
(** [run backends source] replays the source through the back-ends and
    returns the event count with the concatenated warnings (in back-end
    order, like {!Velodrome_analysis.Backend.run_events}). *)

(** {1 Checking one trace file} *)

type format = [ `Human | `Json ]

type rendered =
  | Lines of string list  (** one {!Velodrome_analysis.Warning.pp} line each *)
  | Objects of Velodrome_util.Json.t list
      (** one {!Velodrome_analysis.Warning.to_json} object each *)
(** A stream's deduplicated warnings rendered against its name
    environment in one output format, so they can leave the domain that
    owns that environment. *)

type outcome =
  | Checked of { events : int; warnings : rendered }
      (** the stream replayed to the end *)
  | Failed of {
      events : int;  (** events replayed before the failure *)
      warnings : rendered;  (** warnings over the valid prefix *)
      message : string;  (** the one-line diagnostic *)
    }
      (** the stream was unreadable, corrupt, truncated or ill-formed —
          exit-2 semantics, with the partial result preserved *)

val warning_count : rendered -> int

val error_line : string -> exn -> string
(** [error_line path e] is the one-line diagnostic for a failure [e]
    while reading the trace file [path]: [PATH: corrupt binary trace: …],
    [PATH:LINE: …], [PATH: ill-formed trace: op N …], [PATH: engine
    limit: …] (more live transaction nodes than the engine has slots),
    or the I/O error. *)

val check_file :
  ?progress:(stats -> unit) ->
  ?every:int ->
  ?live_nodes:(unit -> int) ->
  backends:(Velodrome_trace.Names.t -> Backend.packed list) ->
  format:format ->
  string ->
  outcome
(** [check_file ~backends ~format path] opens [path]
    ({!Source.with_file}), replays it with {!run} through
    [backends names] (called once, with the stream's name environment),
    and renders the warnings, deduplicated by label, in [format] only
    ([`Human] lines or [`Json] objects). Every failure becomes a
    [Failed] outcome: header damage and I/O errors (a missing file, a
    directory) with [events = 0]. *)
