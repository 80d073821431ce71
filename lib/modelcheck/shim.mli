(** Traced synchronization primitives for the in-tree model checker.

    Structurally compatible with [ref] / [Stdlib.Mutex] /
    [Stdlib.Condition], so code functorized over its primitives (e.g.
    [Velodrome_serve.Serve.Make]) runs unchanged under the {!Explore}
    scheduler. Every operation performs the {!Op} effect;
    outside an explorer run that effect is unhandled, so this module is
    only usable from inside {!Explore.explore} / {!Explore.replay}
    scenarios (including their init and final-check phases, which
    execute ops directly). *)

type access = { obj : int; write : bool }
(** One object touched by an operation. Two operations are dependent
    (DPOR sense) iff they touch a common object and at least one
    writes it. *)

type _ Effect.t +=
  | Op : {
      tag : string;  (** printable, for counterexample schedules *)
      accesses : access list;
      enabled : unit -> bool;
          (** guard: blocking = disabled until another transition's
              side effect flips this *)
      execute : unit -> 'r;  (** run only when scheduled *)
    }
      -> 'r Effect.t

val reset : unit -> unit
(** Reset the object-id allocator; called by the explorer before each
    run so ids and schedules are stable across replays. *)

module Plain : sig
  type 'a t

  val make : 'a -> 'a t
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
end

module Mutex : sig
  type t

  val create : unit -> t
  val lock : t -> unit
  val unlock : t -> unit
end

module Condition : sig
  type t

  val create : unit -> t

  val wait : t -> Mutex.t -> unit
  (** Two transitions: atomically release the mutex and record the
      broadcast generation; then, once a broadcast has bumped it and the
      mutex is free, reacquire. Exact for broadcast-only users. *)

  val broadcast : t -> unit
end
