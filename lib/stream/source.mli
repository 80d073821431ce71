(** Event sources for streaming replay.

    A source is a name environment plus a single-shot iterator over
    events. File-backed sources decode lazily — one event is live at a
    time — so a trace larger than RAM replays in bounded memory, which is
    exactly the regime the paper's online analysis is designed for.

    The name environment handed to the callback of {!with_file} is
    {e mutable}: a textual source interns names as lines are parsed, so
    back-ends created from it before iteration see names appear as
    events arrive (all analyses index by dense integer id, so this is
    safe). A binary source's dictionary is decoded up front. *)

open Velodrome_trace

type t = {
  names : Names.t;
  iter : (Event.t -> unit) -> unit;
      (** Single-shot iteration in trace order; indices count from 0. *)
}

val of_trace : Names.t -> Trace.t -> t
(** An in-memory trace as a source (for differential testing). *)

val with_file : string -> (t -> 'a) -> 'a
(** Opens [path] once, sniffs the format on that channel (a
    {!Trace_codec.magic} prefix means binary), rewinds, and runs the
    callback with a source over it; the file is closed when the callback
    returns or raises. Iteration raises
    {!Trace_codec.Corrupt} or {!Trace_io.Syntax_error} on malformed
    input. *)
