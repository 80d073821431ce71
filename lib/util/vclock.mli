(** Growable integer vector clocks over dense thread ids.

    A clock maps each thread [t] to a count: [c(t) = k] means the clock
    has observed thread [t] up to its [k]-th step. The AeroDrome engine
    counts transactions; the happens-before and FastTrack race detectors
    count synchronization epochs. Storage grows on demand past the
    initial capacity; absent entries read as 0, matching the
    ⊥-initialized clocks of the literature.

    The clocks form a join-semilattice under the pointwise order:
    {!join} is commutative, associative and idempotent, {!incr} is
    strictly monotone, and {!compare} agrees with the pointwise order
    ({!leq} both ways). These laws are property-tested in
    [test/test_backends.ml]. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh all-zero clock. [capacity] pre-sizes the backing array; the
    clock still grows past it on demand. *)

val get : t -> int -> int
val set : t -> int -> int -> unit

val incr : t -> int -> unit
(** [incr c t] bumps component [t] by one. *)

val join : t -> t -> unit
(** [join dst src] updates [dst] in place to the pointwise maximum. *)

val copy : t -> t
val equal : t -> t -> bool

val leq : t -> t -> bool
(** Pointwise ≤ — the happens-before order on clocks. *)

(** The four possible relations of two clocks under the pointwise
    partial order. *)
type order = Equal | Less | Greater | Incomparable

val compare : t -> t -> order
(** One-pass classification; agrees with {!leq} in both directions. *)

val pp : Format.formatter -> t -> unit
