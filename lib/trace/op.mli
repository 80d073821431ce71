(** Operations — the alphabet of Figure 1.

    [rd(t,x,v)] and [wr(t,x,v)] in the paper carry the value [v] read or
    written; the analyses never inspect it (only the access pattern
    matters for conflict-serializability), so operations here carry only
    the thread, the variable or lock, and for [Begin] the atomic-block
    label. *)

open Ids

type t =
  | Read of Tid.t * Var.t
  | Write of Tid.t * Var.t
  | Acquire of Tid.t * Lock.t
  | Release of Tid.t * Lock.t
  | Begin of Tid.t * Label.t  (** entry into an atomic block labelled [l] *)
  | End of Tid.t  (** exit of the innermost open atomic block *)

val tid : t -> Tid.t
(** The paper's [tid(a)]. *)

val conflicts : t -> t -> bool
(** Two operations conflict (Section 2) iff they access the same variable
    with at least one write, operate on the same lock, or are performed by
    the same thread. Conflicting operations may not be commuted when
    searching for an equivalent serial trace. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val pp_named : Names.t -> Format.formatter -> t -> unit

val to_string : t -> string
