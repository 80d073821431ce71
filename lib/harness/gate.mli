(** The dynamic soundness gate of the static pre-pass, run by
    [analyze --gate] and the tests.

    Each program is replayed under round-robin, seeded-random and
    adversarial schedules with the graph engine, Eraser and the
    happens-before race detector attached (plus the Atomizer, whose
    pause hints drive the adversarial scheduler and whose warnings carry
    no obligation), and both directions of the
    static story are checked. The engine must never refute a
    statically-proved block: Theorem 1 makes blame a completeness claim
    (the transaction really is non-serializable), so one mismatch is a
    statics bug, not scheduling noise. Every block it does blame must be
    statically may-violate, since the conflict graph over-approximates
    every dynamic happens-before edge and a blame is a real cycle (a
    blamed block that is merely unknown means the budget valve fired,
    which gated program sizes never reach). Every dynamic race warning
    must land on a variable the pairwise static detector flags: a
    variable in no static race pair is race-free on every execution.

    Two more obligations ride along on each schedule: {!Trio.check} on
    the recorded trace, and, when the statics carry a value analysis, no
    event from a statically-dead site and no observed value outside its
    site's static interval. *)

type kind =
  | Proved_blamed of string  (** a proved block's label *)
  | Not_may_violate of string
      (** a dynamically blamed label whose static verdict is not
          may-violate *)
  | Uncovered_race of { analysis : string; var : string }
      (** a dynamic race warning on a variable in no static race pair *)
  | Engines_disagree of string  (** {!Trio.check}'s message *)
  | Value_unsound of string
      (** the first dead-site event or out-of-interval value of the
          schedule *)

type failure = { schedule : string; kind : kind }

type t = {
  schedules : int;
  dynamic_warnings : int;  (** across all schedules *)
  pauses : int;
      (** the adversarial scheduler's pauses across all schedules *)
  failures : failure list;
      (** grouped by kind in declaration order; within a kind,
          [Not_may_violate] and [Uncovered_race] are sorted and
          de-duplicated, the others are in schedule order *)
}

val schedules : int list -> (string * Velodrome_sim.Run.config) list
(** The gate's schedules for [seeds], named as its failures name them:
    round-robin, then [random(seed s)] and [adversarial(seed s)] for
    each seed. *)

val run :
  Velodrome_sim.Ast.program -> Velodrome_statics.Statics.t -> seeds:int list -> t
(** One run per {!schedules} entry: [1 + 2 * List.length seeds]. *)

val ok : t -> bool

val pp : values:bool -> Format.formatter -> t -> unit
(** One [soundness gate: OK (...)] line, or one
    [soundness gate: FAILED: ...] line per failure. [values] says the
    value obligations were checked, which the OK line then claims. *)

val to_json : t -> Velodrome_util.Json.t
(** [schedules], [dynamic_warnings], one array per kind ([mismatches],
    [uncovered_blames], [uncovered_races], [engine_disagreements],
    [value_violations]) and [ok]. *)

val replay_lines :
  gen_seed:int -> families:string list -> seeds:int list -> t -> string list
(** For a failed gate over a generated program: the progen seed, its
    families and the first failure's schedule, then the one command that
    reproduces the run. Empty when the gate passed. *)
