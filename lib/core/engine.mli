(** The Velodrome analysis — optimized semantics with blame assignment
    (Figure 4).

    The engine consumes the event stream and maintains the instrumentation
    state [(C, L, U, R, W, H)] over packed {!Step}s:

    - [C]: per thread, the stack of open atomic blocks [(label, begin
      timestamp)] plus the current transaction node — only the outermost
      [Begin] allocates a node;
    - [L]: per thread, the step of its last operation;
    - [U]: per lock, the step of the last release;
    - [R]: per variable and thread, the step of the last read;
    - [W]: per variable, the step of the last write;
    - [H]: the happens-before graph, owned by {!Pool}.

    An error is reported exactly when an edge would close a cycle — i.e.
    exactly when the observed prefix stops being conflict-serializable
    (Theorem 1). The offending edge is {e not} added, so the graph stays
    acyclic and reference counting keeps collecting garbage nodes; the
    analysis continues and can report further violations.

    {b Blame.} Edges carry head/tail timestamps. A detected cycle is
    {e increasing} when every node other than the current one has its
    incoming timestamp ≤ its outgoing timestamp; then the current
    transaction provably interleaves with conflicting operations and is
    not self-serializable, and every atomic block on the current stack
    containing both the root and target operations is refuted
    (Section 4.3). The warning carries the outermost refuted label.

    {b Reports.} A report's key is the label it names: the outermost
    refuted block when the cycle is blamed, else the current transaction's
    outermost block. Each label is reported at most once blamed and once
    unblamed, by the first cycle with that key, so a stream over [n]
    labels keeps at most [2n] warnings however many cycles it closes. Each
    is a short verdict text plus the cycle as an
    {!Velodrome_analysis.Error_graph.t}. A detected cycle is evaluated in
    place: blame reads the path that {!Pool.find_path} leaves in a reused
    buffer, so a cycle whose key was already reported allocates nothing,
    and a cycle whose thread can make no new report is only counted. The
    cycle of a new report stays data; its one-line summary
    ({!Velodrome_analysis.Warning.message}) and its dot graph are
    rendered only for warnings that get printed.

    {b Merge.} Operations outside any atomic block go through the [merge]
    function of Figure 4, which avoids allocating nodes for unary
    transactions whenever a representative predecessor exists. Figure 2's
    naive [INS OUTSIDE] rule, a fresh unary transaction per such
    operation, is {!Basic}: the "Without Merge" columns of Table 1.
    Verdicts are identical either way; only allocation counts and speed
    differ. *)

open Velodrome_trace
open Velodrome_analysis

type t

val create : Names.t -> t
val on_event : t -> Event.t -> unit
val finish : t -> unit

val warnings : t -> Warning.t list
(** In detection order: at most one blamed and one unblamed warning per
    label, each from the first cycle with that key.
    {!Velodrome_analysis.Warning.dedup_by_label} keeps the first of the
    two. *)

val has_error : t -> bool
(** Whether any cycle was detected — true iff the consumed trace is not
    conflict-serializable. *)

val cycles_found : t -> int
(** Total cycles detected, including ones deduplicated away. *)

val first_error_index : t -> int option
(** Event index of the first detected cycle. A correct engine detects the
    violation at exactly the event that makes the prefix non-serializable,
    so this is directly comparable across engine variants. *)

val nodes_allocated : t -> int
val nodes_max_alive : t -> int
val nodes_live : t -> int

val debug_pool : t -> Pool.t
(** The engine's happens-before graph, for differential tests that check
    the pool's bitset ancestor sets against reference graph reachability.
    Not part of the analysis API. *)

val backend : unit -> (module Backend.S)
(** Package as a RoadRunner-style back-end named ["velodrome"]. *)
