(** The static transactional conflict graph and its cycle search.

    Velodrome's Theorem 1 makes a trace non-serializable exactly when the
    transactional happens-before graph acquires a non-trivial cycle, and
    the engine blames the {e current} thread's open blocks when the
    cycle-closing in-edge lands on one of their operations. This module
    over-approximates every such dynamic cycle from the CFG alone, giving
    a second static proof rule: an atomic occurrence no static cycle can
    close into is serializable on {b every} execution, even when Lipton
    reduction fails on it.

    {2 The graph}

    Nodes are the reachable effectful sites (lock and shared-variable
    operations). Each belongs to a {e region}: the outermost atomic
    occurrence containing it, or a singleton unary region — each unary
    operation is its own Velodrome transaction. Edges over-approximate
    the dynamic edge sorts:

    - {e strict} cross-thread edges from {!Conflict} (variable conflicts
      both ways, release→acquire lock order);
    - {e program order} between ops of different regions of one thread
      (CFG reachability, so loops yield both directions);
    - {e cross-instance} edges, both ways, between all ops of a region
      whose exit can reach its entry — its instances are distinct
      transactions in unknown relative order;
    - {e passage} edges inside one instance of an atomic region: arrive
      at [a], depart at [x], present when the two ops can co-occur in an
      instance (reachability {e restricted to the occurrence's subtree},
      which excludes both mutually-exclusive [if] branches and
      cross-instance paths through the enclosing loop). A passage is
      {e slack} when [x] can precede [a] — the transaction has already
      published an out-edge when the in-edge arrives, which is the only
      way a cycle closes into it.

    {2 The decision}

    For each slack passage [(a, x)] of an atomic region [R], the search
    asks whether the graph realizes the rest of the cycle: a path from
    [x] back to [a] through some op of another thread. Three facts about
    the dynamic closing edge sharpen it soundly: the closing in-edge and
    the departure out-edge are cross-thread strict edges (program-order
    edges appear only at transaction begin, too late to participate), so
    first and last hops must be strict; and when [R] is single-instance
    (no CFG path from exit back to entry) the minimal cycle visits it
    once, so the path may not traverse [R]'s other ops nor its passage
    edges. An occurrence is flagged when some accepted slack edge
    {e arrives} inside it — mirroring blame, which requires the closing
    op syntactically inside every blamed block — and each flag carries a
    concrete {!witness} cycle. *)

open Velodrome_trace
open Velodrome_trace.Ids

type edge_kind =
  | Strict of Conflict.kind
  | Program_order
  | Cross_instance
  | Passage of { slack : bool }

type hop = { node : Cfg.node; via : edge_kind }
(** One step of a witness path: the node stepped onto and the edge sort
    that reached it. *)

type witness = {
  label : Label.t;
  occurrence : Cfg.site;  (** the outermost occurrence the cycle closes into *)
  arrival : Cfg.node;  (** op receiving the cycle-closing in-edge *)
  departure : Cfg.node;  (** op whose earlier out-edge the cycle left by *)
  pivot : Cfg.node;  (** a path op on another thread *)
  path : hop list;  (** hops from [departure] to [arrival], in order *)
}

type stats = {
  ops : int;
  regions : int;
  conflict_edges : int;
  lock_edges : int;
  po_edges : int;
  cross_instance_edges : int;
  passage_edges : int;
  slack_edges : int;
  accepted_slack_edges : int;
}

type t

val build :
  Names.t -> Cfg.t -> Lockset.t -> Mhp.t -> Reduce.occurrence list -> t

val exhausted : t -> bool
(** The op count or slack-decision budget overflowed and the search was
    abandoned; no [cycle_free] claim is made for any occurrence. *)

val cycle_free : t -> Cfg.site -> bool
(** No accepted slack edge arrives at an op inside the occurrence at this
    site (nested occurrences query their own subtree). Always [false]
    when {!exhausted}. *)

val witness_for : t -> Cfg.site -> witness option
(** The witness for the least accepted arrival inside the occurrence's
    subtree, if any. *)

val witnesses_for : t -> Cfg.site -> witness list
(** Every accepted witness whose arrival lands inside the occurrence's
    subtree, in ascending arrival order — the raw material for the
    predictive planner, which tries each cycle in turn. *)

val stats : t -> stats

val explain : t -> witness -> string
(** One-line human cycle summary; every op carries its source position. *)

val witness_json : t -> witness -> Velodrome_util.Json.t

val witness_dot : t -> witness -> string
(** The witness cycle at transaction granularity — one dot node per
    region visited, the closing edge dashed, the blamed region
    emphasized — mirroring the dynamic error-graph rendering. *)

val to_dot : t -> string
(** The full op-level graph; passage edges dashed. *)
