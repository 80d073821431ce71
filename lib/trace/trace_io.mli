(** Textual trace serialization.

    RoadRunner-style tooling routinely records event streams and replays
    them through analyses offline; this module gives traces a stable,
    line-oriented, human-editable format:

    {v
    # comments and blank lines are ignored
    t0 begin Set.add
    t0 rd elems
    t1 wr elems
    t0 wr elems
    t0 end
    t2 acq vector
    t2 rel vector
    v}

    Thread ids are [tN]; variables, locks and labels are free-form names
    interned into the {!Names.t} produced alongside the trace. Writing
    then reading a trace reproduces it exactly (up to the interning of
    names, which is deterministic in first-use order). *)

exception Syntax_error of int * string
(** line number (1-based) and message *)

val to_string : Names.t -> Trace.t -> string

val write : Names.t -> Trace.t -> out_channel -> unit

val of_string : string -> Names.t * Trace.t
(** Raises {!Syntax_error} on malformed input. *)

val fold_channel :
  Names.t -> in_channel -> init:'a -> f:('a -> Op.t -> 'a) -> 'a
(** Streaming parse: reads the channel a chunk at a time, interning
    names into the given environment and folding over operations
    without ever holding the whole trace in memory. Raises
    {!Syntax_error} with accurate 1-based line numbers, after [f] has
    seen every operation before the bad line.

    The channel is read through an {!Inbuf.t}: up to 4 KiB at a time
    (less for a shorter file) into a buffer that grows only to hold a
    line longer than itself, so the channel's position says nothing
    about how far parsing has got. Each line is scanned in place: CR
    counts as whitespace, so CRLF files parse; a name is copied out of
    the buffer only the first time it is seen. A thread id of decimal
    digits is read digit by digit; any other spelling after the [t]
    goes to [int_of_string_opt], so [t0x1f] is thread 31, [t1_0] is
    thread 10, [t+3] is thread 3, and a negative or out-of-range id is
    a [bad thread id] error, as they always were. *)

val read_file : string -> Names.t * Trace.t
val write_file : Names.t -> Trace.t -> string -> unit
