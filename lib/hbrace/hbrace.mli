(** Complete happens-before race detection (Djit+-style vector clocks).

    RoadRunner ships "a complete happens-before detector" alongside Eraser
    (Section 5); this is that substrate. Happens-before here is the
    {e synchronization} order — program order plus release-to-acquire
    edges on each lock — not Velodrome's conflict-based order. Two
    accesses to the same variable race iff at least one writes and neither
    happens-before the other.

    Per variable the detector keeps the vector clock of all reads and of
    all writes; a race is reported at the first access whose thread clock
    does not dominate the relevant access clock. Unlike Eraser this is
    precise for the observed trace: it reports a race iff the trace
    contains one (for the first race on each variable; subsequent
    accesses to an already-racy variable keep accumulating, as in Djit+).
    Volatile variables are exempt, as their races are intentional. *)

open Velodrome_trace
open Velodrome_analysis

type t

val create : Names.t -> t
val on_event : t -> Event.t -> unit
val finish : t -> unit
val warnings : t -> Warning.t list
val name : string
val backend : unit -> (module Backend.S)
