(** Traces: finite sequences of operations (Section 2).

    A trace records one observed execution of a multithreaded program. The
    checkers in this repository are defined over traces, and their
    correctness statements quantify over {e well-formed} traces — those
    that could actually be produced by the semantics of Figure 1:

    - a lock is acquired only when free and released only by its holder
      (rules [ACT ACQUIRE]/[ACT RELEASE]); re-entrant acquires are assumed
      to have been filtered out, as RoadRunner does for Velodrome;
    - [End t] only closes an atomic block that [t] previously opened;
      blocks may be left open at the end of the trace (truncated
      executions are explicitly allowed by the paper's definition of a
      transaction). *)

open Ids

type t

val of_ops : Op.t list -> t
val of_array : Op.t array -> t
val ops : t -> Op.t array
val to_list : t -> Op.t list
val length : t -> int
val get : t -> int -> Op.t
val append : t -> Op.t -> t
val iteri : (int -> Op.t -> unit) -> t -> unit

val threads : t -> Tid.t list
(** Distinct thread ids, ascending. *)

val pp : Format.formatter -> t -> unit

type violation =
  | Acquire_held of int * Lock.t
      (** [acq] at this index while the lock was held *)
  | Release_unheld of int * Lock.t
      (** [rel] at this index by a thread that does not hold the lock *)
  | End_without_begin of int * Tid.t

exception Ill_formed of violation

(** Incremental well-formedness: the one implementation behind {!check},
    also run by the streaming driver before each event reaches a
    back-end. *)
module Checker : sig
  type t

  val create : unit -> t

  val step : t -> int -> Op.t -> unit
  (** [step c i op] admits [op] at trace index [i], or raises
      {!Ill_formed} and leaves [c] unchanged. *)
end

val check : t -> (unit, violation) result
(** Well-formedness as described above: {!Checker.step} over every
    operation. *)

val is_well_formed : t -> bool

val pp_violation : Format.formatter -> violation -> unit
