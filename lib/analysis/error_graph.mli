(** Error graphs (Section 5).

    When Velodrome detects a non-serializable trace it keeps the cycle of
    transactions as data ({!t}) in the warning; the two renderings below
    run only where a warning is printed. [to_dot] draws boxes for
    transactions, edges labelled with the operation that induced them,
    the cycle-closing edge dashed, and the blamed transaction outlined;
    [summary] is the one-line form that {!Warning.message} appends. *)

open Velodrome_trace

type gnode = {
  id : int;  (** node slot, unique within the graph *)
  tid : int;
  label : int;  (** label id, [-1] for unary transactions *)
  blamed : bool;
}

type gedge = {
  src : int;
  dst : int;
  op : Op.t option;  (** operation that induced the edge *)
  closing : bool;
}

type t = { nodes : gnode list; edges : gedge list }

val to_dot : Names.t -> name:string -> t -> string

val summary : Names.t -> t -> string
(** One-line cycle description, e.g. [add(t0) -> unary(t1) -> add(t0)]. *)
