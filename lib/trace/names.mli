(** Name environments.

    Operations carry only dense integer identifiers ({!Ids}); this module
    holds the mapping back to source-level names for error reporting. A
    [Names.t] is built once per program/workload and threaded to the
    reporting layer only — the hot analysis paths never touch it. *)

open Velodrome_util

type t = {
  vars : Symtab.t;
  locks : Symtab.t;
  labels : Symtab.t;
  volatiles : (int, unit) Hashtbl.t;  (** var ids declared volatile *)
}

val create : unit -> t

val var : t -> string -> Ids.Var.t
(** Interns (allocating on first use). *)

val lock : t -> string -> Ids.Lock.t
val label : t -> string -> Ids.Label.t

val var_name : t -> Ids.Var.t -> string
val lock_name : t -> Ids.Lock.t -> string
val label_name : t -> Ids.Label.t -> string

val set_volatile : t -> Ids.Var.t -> unit
(** Declare a variable volatile. Race detectors exempt volatiles from
    reporting; the Atomizer still treats volatile accesses as non-movers.
    Velodrome needs no such annotation — conflict order covers volatile
    synchronization automatically. *)

val is_volatile : t -> Ids.Var.t -> bool
