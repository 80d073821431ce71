(** A chunked input buffer: the one reader type under both trace formats.

    {!Trace_codec} decodes [.velb] bytes and {!Trace_io} scans text lines
    in place in [buf.[pos .. lim - 1]], the window of input read so far
    and not yet consumed. Each {!refill} costs one [input] call for up to
    a chunk of bytes, instead of one channel call per byte or per line.
    The fields are exposed so the per-byte loops of both formats stay
    inlined; only this module moves the window. *)

type t = {
  ic : in_channel option;  (** [None]: a fixed string, nothing to read *)
  mutable buf : Bytes.t;
  mutable pos : int;  (** next unconsumed byte *)
  mutable lim : int;  (** end of the bytes read so far *)
  mutable base : int;  (** input offset of [buf.[0]] *)
}
(** [base + pos] is the number of input bytes consumed: the offset every
    {!Trace_codec.Corrupt} message reports. *)

val chunk : int
(** 4 KiB: the most one {!refill} asks the channel for, and the size of
    a fresh buffer when the input is at least that long. The channel
    buffers 64 KiB itself, so a larger window would only save [input]
    calls, while every stream [serve] checks allocates one. *)

val of_channel : in_channel -> t
(** Reads from the channel's current position on. The buffer is sized
    to the bytes left when the channel knows its length and they are
    fewer than {!chunk}, so a short stream does not pin a full chunk. *)

val of_string : string -> t
(** The whole string as the window, without a copy; {!refill} never
    writes to it. *)

val refill : t -> bool
(** Keeps the unconsumed bytes [pos .. lim - 1], moved to the front of
    the buffer (doubled first if they fill it), and appends what one
    [input] call returns. False, with nothing changed, at end of input. *)
