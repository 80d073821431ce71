(** Structured analysis warnings.

    Every back-end reports through this type so the evaluation harness can
    count, classify (real vs false alarm, via workload ground truth) and
    deduplicate warnings uniformly, the way the paper counts "distinct
    warnings" per method. *)

open Velodrome_trace
open Velodrome_trace.Ids

type kind =
  | Atomicity_violation
      (** a non-serializable trace was observed (Velodrome) *)
  | Reduction_failure
      (** the block does not match the right-movers/left-movers pattern
          (Atomizer); may be a false alarm *)
  | Race  (** unsynchronized conflicting accesses (Eraser, HB detector) *)
  | Deadlock  (** all runnable threads blocked (simulator) *)

type t = {
  analysis : string;  (** back-end name *)
  kind : kind;
  tid : Tid.t option;  (** thread the warning concerns *)
  label : Label.t option;
      (** blamed atomic block / method; [None] when blame could not be
          assigned to a particular block *)
  var : Var.t option;  (** variable involved, for race reports *)
  text : string;
      (** the report without its cycle; {!message} renders the whole *)
  cycle : Error_graph.t option;
      (** the error graph of the detected cycle (Velodrome), kept as data
          and rendered only where the warning is printed *)
  index : int;  (** event index at which the warning fired *)
  blamed : bool;
      (** true when blame analysis pinned a specific non-self-serializable
          transaction (Velodrome's >80 % statistic) *)
  refuted : Label.t list;
      (** every block refuted by the blame analysis, outermost first
          ([label] is its head); empty for unblamed warnings. The static
          pre-pass soundness gate checks no statically proved label ever
          appears here. *)
}

val make :
  analysis:string ->
  kind:kind ->
  ?tid:Tid.t ->
  ?label:Label.t ->
  ?var:Var.t ->
  ?cycle:Error_graph.t ->
  ?blamed:bool ->
  ?refuted:Label.t list ->
  index:int ->
  string ->
  t

val message : Names.t -> t -> string
(** The full report: [text], followed for a warning with a cycle by
    ["; cycle: "] and its {!Error_graph.summary}. The single place a
    cycle is summarised; {!pp} and {!to_json} print this. *)

val dot : Names.t -> t -> string option
(** The cycle's error graph in dot ({!Error_graph.to_dot}), the digraph
    named after [label] (["cycle"] when there is none); [None] for a
    warning without a cycle. *)

val pp : Names.t -> Format.formatter -> t -> unit

val to_json : Names.t -> t -> Velodrome_util.Json.t
(** The JSON object the CLI reports for a warning (check-trace and
    serve); resolves ids through [names], omits absent label/var, keeps
    the pinned field order. *)

val dedup_by_label : t list -> t list
(** Keep the first warning for each (analysis, kind, label) triple —
    the paper's "distinct warnings per method" counting. Warnings without
    a label are deduplicated by (analysis, kind, var, tid). *)
