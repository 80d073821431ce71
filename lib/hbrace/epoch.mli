(** Epochs: a clock value paired with the thread that produced it, packed
    into one integer — FastTrack's "c@t" representation. Most variables
    are only ever accessed in a totally ordered way, so a single epoch
    replaces a whole vector clock for them. *)

type t = private int

val none : t
(** The ⊥ epoch: before any access; happens-before everything. *)

val make : tid:int -> clock:int -> t
val tid : t -> int
val clock : t -> int
val is_none : t -> bool

val leq_vc : t -> Velodrome_util.Vclock.t -> bool
(** [leq_vc e c] iff the epoch's event happens-before (or is) the point
    described by clock [c]: [clock e <= c(tid e)]. [none] ≤ everything. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
