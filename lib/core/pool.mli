(** Transaction nodes and the happens-before graph (Sections 4.1–4.2, 5).

    The pool owns every node of the transactional happens-before graph and
    implements the three mechanisms the paper's prototype relies on:

    - {b Acyclicity via ancestor sets.} Each live node carries the set of
      live nodes with a path to it. Attempting to add an edge whose
      reversal is already implied is reported as a cycle {e without adding
      the edge}, so the graph stays acyclic at all times.
    - {b Reference-counting garbage collection.} Incoming edges to a node
      are only ever added by the thread executing that transaction, so a
      finished node with no incoming edges can never lie on a cycle and is
      collected immediately, cascading along its outgoing edges.
    - {b Slot recycling with stale-step detection.} Collected slots are
      reused; timestamps within a slot never restart, and each slot
      remembers the last timestamp in use when it was collected, so a step
      minted for an earlier incarnation resolves to ⊥ ({!resolve}).

    {b Representation.} Ancestor sets are {!Velodrome_util.Bitset}s
    indexed by slot, so membership is a word test and transitive-closure
    updates are word-parallel ORs. Each node also keeps the mirror
    descendant set; collecting a node clears its slot's bit-column by
    visiting exactly the nodes that carry it, never the whole live set.

    Edges carry the timestamps of the operations at their tail and head —
    the raw material for blame assignment — plus optional diagnostic
    operations for error graphs. At most one edge is kept per ordered node
    pair; re-adding replaces the timestamps (the paper's [⊕] on steps). *)

open Velodrome_trace

type t
type node

exception Slots_exhausted
(** Raised by {!alloc} when {!Step.max_slots} nodes are alive at once:
    a packed step has no room for another slot. *)

type edge = {
  dst_slot : int;  (** slot of the edge's destination node *)
  mutable tail_ts : int;
  mutable head_ts : int;
  mutable diag_op : Op.t option;  (** operation that induced the edge *)
  mutable diag_index : int;  (** event index of that operation *)
}

val create : unit -> t

val alloc : t -> tid:int -> label:int -> node
(** A fresh (or recycled) live, inactive node with no edges. [label] is
    [-1] for unary/merged transactions; [tid] is diagnostic.
    Raises {!Slots_exhausted} when every slot holds a live node. *)

val set_active : t -> node -> bool -> unit
(** Mark the node as some thread's current transaction. Deactivating may
    collect the node immediately. *)

val sweep : t -> node -> unit
(** Collect the node now if it is inactive with no incoming edges. Engines
    call this after building a node that may have received no edges (e.g.
    a unary transaction whose predecessors were all ⊥). *)

val fresh_ts : node -> int
(** Next timestamp in this node; strictly increasing for the lifetime of
    the slot. *)

val step_of : node -> ts:int -> Step.t

val resolve : t -> Step.t -> node option
(** [None] for ⊥ and for stale steps (slot collected since the step was
    minted, even if since recycled). *)

val step_live : t -> Step.t -> bool
(** Whether {!resolve} would return a node — without allocating the
    option. The engine fast path pairs this with {!node_of_step}. *)

val node_of_step : t -> Step.t -> node
(** The node a step belongs to. Only meaningful after {!step_live}
    returned [true] with no pool mutation in between. *)

val node_at : t -> int -> node
(** The node at a slot, unchecked: the caller must hold the slot of a
    node it knows is live (the engine's current transaction). *)

val slot : node -> int

val is_live : node -> bool

val is_active : node -> bool
(** Whether the node is currently some thread's open transaction. Merge
    must never pick an active node as representative: the unary operation
    would be absorbed into a transaction that can still perform
    conflicting operations, turning future cycle edges into self-edges
    and losing completeness. *)

val diag_tid : node -> int
val diag_label : node -> int

val happens_before_or_eq : t -> node -> node -> bool
(** Non-strict: equal nodes, or a path exists. Used by [merge]. *)

val add_edge :
  t ->
  src:node ->
  src_ts:int ->
  dst:node ->
  dst_ts:int ->
  ?diag:Op.t * int ->
  unit ->
  [ `Ok | `Self | `Cycle ]
(** Add [src -> dst]. [`Self] when the nodes coincide (filtered, like the
    paper's ⊕). [`Cycle] when the edge would close a cycle, i.e. when
    [dst ⇒* src] already holds; the edge is not added and nothing else
    changes. {!find_path} finds the offending path. *)

val add_edge_op :
  t ->
  src:node ->
  src_ts:int ->
  dst:node ->
  dst_ts:int ->
  op:Op.t ->
  index:int ->
  [ `Ok | `Self | `Cycle ]
(** {!add_edge} with mandatory diagnostics and no optional-argument
    boxing; the engine's per-event call. *)

(** {2 Cycle paths} *)

type path
(** A reusable buffer holding one path of live edges as a sequence of
    hops, each a node's slot and the index of one of its out-edges. *)

val create_path : unit -> path

val find_path : t -> path -> from:node -> to_:node -> unit
(** Leave in the buffer the first path [from ⇒+ to_] that a depth-first
    search finds, visiting each node's live out-edges in insertion order.
    The ancestor sets steer it, so it never backtracks: it reads only the
    out-edges of the nodes on the path. Requires [from] to be an ancestor
    of [to_] (the condition under which {!add_edge}[ ~src:to_ ~dst:from]
    returns [`Cycle]); raises [Invalid_argument] otherwise. Allocates
    nothing unless the buffer must grow, which it does at most to the
    live node count. *)

val path_length : path -> int
(** The number of edges on the path; at least 1. *)

val path_slot : path -> int -> int
(** [path_slot p i] is the slot of the path's [i]th node, for
    [0 <= i <= path_length p]: node 0 is [from] and the last is [to_]. *)

val path_edge_index : path -> int -> int
(** [path_edge_index p i] is the index of edge [i] (from node [i] to node
    [i + 1]) among node [i]'s out-edges. *)

val path_edge : t -> path -> int -> edge
(** Edge [i] of the path. Valid until an edge is removed, i.e. until a
    node on the path is collected. *)

val live_count : t -> int
val allocated : t -> int
val max_alive : t -> int

val clear_work : t -> int
(** Cumulative count of nodes visited while clearing ancestor bit-columns
    during collection. Freeing a node must cost O(its descendants), not
    O(live nodes); the regression test pins this down. *)

(** {2 Introspection for tests}

    Structural views of the live graph, for differential checks of the
    bitset-ancestor representation against reference graph algorithms. *)

val live_slots : t -> int list
(** Slots of live nodes, ascending. *)

val node_of_slot : t -> int -> node option
(** The live node at a slot, if any. *)

val out_slots : node -> int list
(** Destination slots of the node's out-edges, in insertion order. *)

val ancestor_slots : node -> int list
(** The ancestor set as a sorted slot list. *)

val descendant_slots : node -> int list
(** The descendant set as a sorted slot list. *)
