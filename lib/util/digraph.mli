(** Directed graphs over dense integer nodes.

    Used by the offline serializability oracle (transactional conflict
    graphs) and by tests that cross-check the online engine's incremental
    cycle detection. Nodes are the integers [0 .. n-1]; parallel edges are
    collapsed. *)

type t

val create : int -> t
(** [create n] is the edgeless graph on nodes [0 .. n-1]. *)

val node_count : t -> int
val edge_count : t -> int

val add_edge : t -> int -> int -> unit
(** [add_edge g u v] adds [u -> v]. Self-edges and duplicates are kept out,
    mirroring the paper's [⊕] operator which filters self-edges. Raises
    [Invalid_argument] on out-of-range nodes. *)

val mem_edge : t -> int -> int -> bool
val iter_edges : t -> (int -> int -> unit) -> unit

val has_cycle : t -> bool
(** True iff the graph contains a (non-trivial, since self-edges are
    excluded) directed cycle. *)

val find_cycle : t -> int list option
(** [find_cycle g] returns some cycle as a node list [n0; n1; ...; nk] with
    edges [n0 -> n1 -> ... -> nk -> n0], or [None] if the graph is acyclic. *)

val topological_order : t -> int list option
(** A topological order of all nodes, or [None] if cyclic. *)

val reachable : t -> int -> int -> bool
(** [reachable g u v] is true iff there is a directed path (possibly empty)
    from [u] to [v]. *)
