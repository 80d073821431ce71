(** The adversarial-scheduling studies of Sections 5–6.

    {b Coverage} (S2): run the workloads whose defects hide in narrow
    windows (raytracer, colt, jigsaw) with and without scheduler
    adjustment and compare how many of their rare non-atomic methods
    Velodrome confirms.

    {b Injection} (S3): corrupt elevator and colt by removing one
    contended synchronized method's locks at a time
    ({!Velodrome_inject.Inject}); a single Velodrome run per mutant per
    seed either finds the inserted defect or not. The paper reports the
    success rate rising from ≈30 % to ≈70 % with scheduler adjustment. *)

type coverage_row = {
  workload : string;
  rare_total : int;
  found_plain : int;
  found_adversarial : int;
}

val coverage :
  ?size:Velodrome_workloads.Workload.size ->
  ?seeds:int list ->
  unit ->
  coverage_row list

val print_coverage : Format.formatter -> coverage_row list -> unit

type injection_row = {
  workload : string;
  mutants : int;
  runs : int;  (** mutants × seeds, per mode *)
  detected_plain : int;
  detected_adversarial : int;
}

val injection :
  ?size:Velodrome_workloads.Workload.size ->
  ?seeds:int list ->
  unit ->
  injection_row list

val print_injection : Format.formatter -> injection_row list -> unit

(** {b Single core} (S4): the paper notes that the number of warnings was
    "fairly uniform" when the experiments were repeated using only a
    single core, despite Velodrome's schedule sensitivity. The
    deterministic round-robin scheduler plays the single-core role: the
    Table 2 totals under it should be close to the multi-core (random
    scheduler) totals. *)

type single_core_row = {
  mode : string;
  found : int;
  false_alarms : int;
  s4_missed : int;
}

val single_core :
  ?size:Velodrome_workloads.Workload.size ->
  ?seeds:int list ->
  unit ->
  single_core_row list

val print_single_core : Format.formatter -> single_core_row list -> unit
