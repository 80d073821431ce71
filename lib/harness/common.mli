(** Shared plumbing for the evaluation harness. *)

open Velodrome_trace
open Velodrome_analysis
open Velodrome_workloads

val time : (unit -> 'a) -> float * 'a
(** CPU seconds consumed by the call, and its result. *)

val time_stable : ?min_total:float -> int -> (unit -> unit) -> float
(** Mean CPU time per call, repeating at least [n] times and until
    [min_total] seconds (default 0.05) have accumulated, so that timer
    granularity does not dominate sub-millisecond workloads. *)

val ground_truth : Workload.t -> (string, Workload.ground_truth) Hashtbl.t
(** Ground truth indexed by method label. *)

val label_of_warning : Names.t -> Warning.t -> string option

val run_once :
  ?seed:int ->
  ?round_robin:bool ->
  ?quantum:int ->
  ?adversarial:bool ->
  ?pause_slots:int ->
  ?record_trace:bool ->
  Velodrome_sim.Ast.program ->
  (Names.t -> Backend.packed list) ->
  Velodrome_sim.Run.result
(** Run under the seeded random scheduler (or, with [round_robin], the
    deterministic single-core-style scheduler) with the given back-ends
    (created against the program's name table). *)
