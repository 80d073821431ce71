(** Instrumentation events.

    An event is an operation plus the global index of the event in the
    observed stream, the diagnostic context every warning names. Analyses
    consume events; formal reasoning (the oracle, the trace generators)
    works on bare operations. *)

type t = {
  op : Op.t;
  index : int;  (** position in the observed stream, starting at 0 *)
}

val make : index:int -> Op.t -> t

val of_ops : Op.t list -> t list
(** Number a bare operation list into an event stream. *)
