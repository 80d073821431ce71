(** Reusable synchronization patterns for workloads.

    Each function returns statements for one {e method} (an atomic block
    with a descriptive label) exercising a known-good or known-bad
    synchronization idiom. Workloads compose these over their own shared
    state so every benchmark keeps its own topology while the idioms stay
    uniform and well-understood:

    - {!locked_rmw}: read-modify-write under a lock — atomic.
    - {!racy_rmw}: unsynchronized read-modify-write — the classic real
      violation both the Atomizer and Velodrome catch.
    - {!config_reader}: reads initialization-time data without locks
      inside an atomic block — serializable (the data is read-only by
      then) but a classic Atomizer {e false alarm}, since the lockset of
      the variable is empty.
    - {!volatile_pair_reader}: two volatile reads in one atomic block —
      serializable when the writer only hands a baton over, but volatile
      accesses are non-movers, so the Atomizer warns — false alarm.
    - {!locked_pair_update}: updates two variables under one lock —
      atomic. *)

open Velodrome_sim
open Velodrome_trace.Ids

val locked_rmw :
  Builder.t -> label:string -> lock:Lock.t -> var:Var.t -> Ast.stmt

val racy_rmw : Builder.t -> label:string -> var:Var.t -> Ast.stmt

val double_read : Builder.t -> label:string -> var:Var.t -> Ast.stmt
(** Reads the variable twice in one atomic block (a non-repeatable read).
    Real violation whenever another thread writes the variable; tends to
    manifest easily because the window spans a scheduling point. *)

val rare_rmw : Builder.t -> label:string -> var:Var.t -> Ast.stmt
(** Like {!racy_rmw} but with an adjacent read/write pair (no scheduling
    point inside the window), so the violation manifests only when the
    scheduler happens to interpose a conflicting write — the kind of
    method Velodrome misses without adversarial scheduling. *)

val staggered : period:int -> iter:Ast.reg -> Ast.stmt -> Ast.stmt
(** Run the statement only on iterations with
    [iter mod period = tid mod period], so different threads reach it at
    different logical times. Wrapping {!rare_rmw} in this makes the
    violating interleaving genuinely rare: conflicting writes exist but
    almost never fall inside another thread's window. *)

val config_reader :
  Builder.t -> label:string -> a:Var.t -> b:Var.t -> sink:Var.t option ->
  Ast.stmt
(** Reads two configuration variables inside an atomic block; optionally
    writes their sum to a thread-private sink variable. *)

val volatile_pair_reader :
  Builder.t -> label:string -> flag:Var.t -> Ast.stmt

val locked_pair_update :
  Builder.t -> label:string -> lock:Lock.t -> a:Var.t -> b:Var.t -> Ast.stmt

val barrier : Builder.t -> prefix:string -> parties:int -> Ast.stmt list
(** A sense-reversing barrier over a lock-protected count and a volatile
    generation flag. Statements are inline (not an atomic method); call
    once per phase per thread. Creates fork-join-style happens-before
    edges that locksets cannot see. *)
