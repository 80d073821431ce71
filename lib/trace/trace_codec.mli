(** Compact binary trace serialization (the [.velb] format).

    The textual {!Trace_io} format is convenient to read and edit but
    expensive to replay: every event costs a line split plus a hashtable
    intern, and the whole file must sit in memory. This module is the
    machine format for the same data — a versioned, self-describing
    container built for streaming replay:

    {v
    "VELB"  version            magic + format version (varint)
    dicts   vars locks labels reserved
                               interned-name dictionaries, id order
    volatiles                  ascending delta-encoded var ids
    count                      number of events (varint)
    events                     one tag byte + varint deltas per event
    "VEND"                     end marker (truncation detection)
    v}

    Every integer is an LEB128 varint; signed deltas are zigzag-encoded.
    Each event carries its opcode in the low three bits of the tag byte;
    bit 3 says "same thread as the previous event", otherwise a thread-id
    delta follows. Operand ids (variable, lock, label) are delta-encoded
    against the previous operand of the same kind, so the hot case — a
    thread hammering one variable — costs two bytes per event and decodes
    with no hashing at all.

    Encoding then decoding reproduces the trace {e and} the name
    environment exactly: the three name dictionaries are written in full
    (even names no event mentions) together with the volatile set. The
    fourth dictionary is a reserved slot: writers leave it empty, and
    readers check it like the others (lengths, duplicates) and then
    discard its names.

    Readers never trust the input: a wrong magic, an unknown version, a
    reserved tag bit, an out-of-range id, a name longer than the bytes
    left, a missing end marker or bytes past it all raise {!Corrupt} with
    the file offset. That offset is the number of bytes consumed when
    decoding stopped — for a truncated file, its length.

    A reader owns its channel: it reads ahead in chunks of up to 4 KiB
    into a private buffer (sized down to what is left of a shorter file),
    so once a reader is created the channel's position says nothing about
    how far decoding has got, and nothing else should read from it. *)

exception Corrupt of string
(** Malformed or truncated binary input; the message includes the byte
    offset where decoding stopped. *)

val magic : string
(** ["VELB"] — the first four bytes of every binary trace. *)

val version : int
(** The format version this build writes and accepts. *)

val write_file : Names.t -> Trace.t -> string -> unit
val read_file : string -> Names.t * Trace.t

val is_binary_file : string -> bool
(** Whether the file starts with {!magic}. False for unreadable or short
    files; used to auto-detect the format of trace inputs. *)

(** {1 Streaming decode}

    A {!reader} decodes the header eagerly — so the name environment is
    available up front for constructing analysis back-ends — and then
    yields events one at a time without ever materializing the trace. *)

type reader

val reader_of_channel : in_channel -> reader
(** Decodes the header (magic, version, dictionaries, event count).
    Raises {!Corrupt} on malformed input. *)

val reader_names : reader -> Names.t

val iter_events : reader -> (Event.t -> unit) -> unit
(** Decodes all events in order. Event indices count from 0. After the
    last event the end marker is verified and trailing bytes are
    rejected; raises {!Corrupt} if the stream is truncated or damaged.
    Single-shot: a reader cannot be iterated twice. *)
