(** Witness-guided predictive atomicity checking.

    Velodrome flames only the violations the observed schedule happens
    to exhibit. This pass turns each static [May_violate] witness cycle
    into concrete forced schedules ({!Plan}), replays them
    deterministically ({!Velodrome_sim.Constrain}), and re-checks every
    forced trace with the full engine trio ([engine]/[basic]/[aero]).
    A prediction is emitted {e only} when all three engines agree the
    forced trace is non-serializable {e and} each one's warning names
    the predicted block — certification-by-replay. Static evidence
    alone never produces a report, so predictions are sound by
    construction; the static pass merely steers which of the
    exponentially many schedules are worth replaying.

    The pass also performs one plain round-robin {e observation} run,
    which (a) grounds the site↔event mapping — witnesses whose every
    waypoint site produced a dynamic event candidate are tried first —
    and (b) records which blocks the un-steered schedule already
    flames, so "prediction found strictly more" claims are measured
    against the same run. *)

open Velodrome_trace
open Velodrome_trace.Ids
open Velodrome_statics

type prediction = {
  label : Label.t;
  name : string;  (** block name, for rendering *)
  witness : Txgraph.witness;
  plan : Plan.t;  (** the variant that certified *)
  trace : Trace.t;  (** the forced execution, certified non-serializable *)
  first_error_index : int;  (** engine's first violating event index *)
  resolved : bool;
      (** every waypoint site had an event candidate in the observation *)
}

type attempt_result =
  | Infeasible of int * Velodrome_sim.Constrain.reason
      (** waypoint index and why the scheduler gave up *)
  | Uncertified
      (** the plan replayed to completion but the trio did not flame the
          predicted block — the static witness over-approximated *)

type attempt = { plan : Plan.t; result : attempt_result }

type block_outcome =
  | Predicted of prediction
  | Unpredicted of attempt list
      (** [May_violate] but no plan certified; attempts in trial order *)
  | Not_attempted  (** proved, unknown, or without a usable witness *)

type block_report = { block : Statics.block; outcome : block_outcome }

type t

val run : Velodrome_sim.Ast.program -> Statics.t -> t
(** Run the full pass: observe, plan, replay, certify. Deterministic.
    At most 8 witnesses are tried per block, and each constrained replay
    is bounded at 200,000 steps. *)

val predictions : t -> prediction list
(** Certified predictions only, in block order. *)

val observed_blamed : t -> Label.t list
(** Blocks the round-robin observation itself flamed (deduplicated). *)

val unpredicted_count : t -> int

val certify : Names.t -> Label.t -> Trace.t -> int option
(** Engine-trio certification: [Some first_error_index] when engine,
    basic and aero all report the trace non-serializable and each emits
    a warning naming the label. *)

val replay_and_certify :
  Velodrome_sim.Ast.program ->
  Label.t ->
  Velodrome_sim.Constrain.plan ->
  (int, string) result
(** Re-run one waypoint schedule and certify it against [label]:
    [Ok first_error_index] or a human reason ([Infeasible ...] /
    uncertified). The gate replays every emitted prediction through
    this; the `--schedule` replay line goes through it too. *)

val recheck : Velodrome_sim.Ast.program -> t -> (string * string) list
(** The prediction gate: re-replay every emitted prediction from its
    schedule through {!replay_and_certify}. Returns the [(block, reason)]
    pairs that no longer certify — by construction none, unless the
    replay line itself does not reproduce, which is what the gate exists
    to catch. *)

type verdict = Static of Statics.verdict | Predicted_violation of prediction
(** The upgraded lattice: a [May_violate] block whose witness schedule
    certified becomes [Predicted_violation]. *)

val verdicts : t -> (Statics.block * verdict) list
val verdict_string : verdict -> string
(** {!Statics.verdict_string}, plus ["predicted-violation"]. *)

val to_json : replay_with:string -> t -> Velodrome_util.Json.t
val pp_human : replay_with:string -> Format.formatter -> t -> unit
(** [replay_with] is the CLI spec naming the program (a target, or
    ["--generated 1 --gen-seed N"]); every prediction carries a
    one-command replay line
    [velodrome analyze SPEC --block B --schedule "..."]. *)
