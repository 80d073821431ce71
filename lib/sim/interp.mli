(** Thread-level interpreter.

    The interpreter advances each thread through its statement list,
    executing silent work (register ops, control flow, re-entrant lock
    nesting) eagerly and stopping at instructions that would emit an
    observable operation. The scheduler drives it in two phases:

    + {!peek} runs silent steps and reports the operation the thread is
      about to perform — this is where the adversarial scheduler consults
      {!Velodrome_analysis.Backend.pause_hint} before letting it happen;
    + {!commit} performs that operation, updating shared memory and lock
      state; committing an [Acquire] of a held lock blocks the thread
      instead (it re-runs when the lock is released).

    Re-entrant acquires and releases are silent, mirroring RoadRunner's
    filtering; set [emit_reentrant] to observe them (for filter tests). *)

open Velodrome_trace

type t

type status =
  | Runnable
  | Blocked of Ids.Lock.t
  | Finished

exception Runtime_error of string
(** Raised on impossible transitions, e.g. releasing an unheld lock. *)

type obs = { o_thread : int; o_path : int list; o_value : int option }
(** One executed instruction: the thread, the structural path of the
    statement (the {!pending_path} coordinate system, i.e. [Cfg.site]),
    and the concrete value when the instruction produces one — the value
    assigned by a [Local], read from memory by a [Read], or stored by a
    [Write]; [None] for control flow, lock operations and atomic
    boundaries. The dynamic soundness gate replays programs under this
    hook to check that no instruction executes at a statically-dead site
    and every observed value lies within its static interval. *)

val create : ?emit_reentrant:bool -> ?observe:(obs -> unit) -> Ast.program -> t
(** [observe] fires once per executed instruction, at execution time:
    silent steps as {!peek} consumes them, observable operations when
    {!commit} performs them (a blocked acquire observes nothing until it
    succeeds). Defaults to ignoring observations. *)


val thread_count : t -> int
val status : t -> int -> status

val peek : t -> int -> [ `Op of Op.t | `Working | `Finished ]
(** Advance silent steps (bounded) and report the pending operation.
    [`Working] means the silent budget was consumed (compute-bound);
    calling again continues. Idempotent once it reports [`Op]. *)

val commit : t -> int -> [ `Emitted of Op.t | `Blocked ]
(** Perform the pending operation of {!peek}. Must be called only after
    [peek] returned [`Op]. *)

val lock_owner : t -> Ids.Lock.t -> int option
(** Thread currently holding the lock, if any. *)

val pending_path : t -> int -> int list option
(** Structural path of thread [i]'s head instruction, in the coordinate
    system of the static CFG ([Cfg.site.path]): the j-th top-level
    statement is [[j]], atomic bodies extend the atomic's path, [If]
    branches append 0/1, [While] bodies reuse the loop's path, and the
    atomic-end marker carries the atomic's own path. Meaningful after
    {!peek} returned [`Op] (the head is then the pending observable op,
    including for [Blocked] threads, whose [Acquire] stays at the head);
    [None] once the thread has an empty program counter. *)

val read_var : t -> Ids.Var.t -> int
(** Current shared-memory value (for tests and examples). *)

val all_finished : t -> bool
