(** May-happen-in-parallel facts over a {!Cfg}.

    Threads in the mini language all start at program entry and the
    scheduler may preempt between any two operations, so two {e distinct}
    thread indices — including two copies of one replicated [thread n]
    body — can always run concurrently; the relation refines that only in
    the sound directions: a thread whose body performs no reachable
    observable effect cannot participate in a race, unreachable sites are
    excluded, and a site never runs in parallel with a site of its own
    thread.

    Atomic blocks are {e checked}, never {e enforced} (the simulator, like
    the JVM the paper instruments, freely interleaves them), so they
    cannot shrink the relation. Their structure refines the {e reporting}
    side instead: [enclosing_atomics] recovers, per site, the chain of
    atomic blocks a racing access endangers, which {!Races} attaches to
    every race-pair witness. *)

open Velodrome_trace.Ids

type t

val analyze : ?dead:(Cfg.site -> bool) -> Cfg.t -> t
(** [dead] marks statically-dead sites from the {!Values} pass; the
    reachability traversal never enters them, so every dead site is
    unreachable here and drops out of races, conflict edges and the
    transactional graph downstream. Defaults to nothing dead. *)

val thread_count : t -> int

val effectful : t -> int -> bool
(** The thread has at least one reachable shared-variable or lock
    operation. *)

val threads : t -> int -> int -> bool
(** Thread-level MHP: distinct indices, both effectful. *)

val reachable : t -> int -> bool
(** The node is reachable from its thread's entry. *)

val concurrent : t -> Cfg.node -> Cfg.node -> bool
(** Site-level MHP: the nodes belong to distinct threads and both are
    reachable. Over-approximates "may execute simultaneously" on every
    schedule. *)

val enclosing_atomics : t -> int -> Label.t list
(** Atomic blocks containing the node, innermost first. *)
