(* The model-checking CI gate (also handy interactively).

   Runs every healthy serve pool scenario under the DPOR explorer with
   an explicit schedule budget — each must come back [Verified] — then
   the two mutants, each of which must produce a counterexample
   (printed as its minimized, numbered schedule and re-validated by a
   deterministic replay). Any other outcome — a violation in a healthy
   scenario, a mutant the explorer misses, a budget overrun — writes the
   offending interleaving trace to [--trace-out] (uploaded as a CI
   artifact) and exits 1.

     dune exec test/mc_run.exe -- [--budget N] [--steps N] [--mode dpor|full]
                                  [--trace-out FILE]

   The per-scenario interleaving counts printed here are the numbers
   quoted in README "Model-checked internals". *)

module Explore = Velodrome_modelcheck.Explore

let budget = ref 750_000
let steps = ref 500
let mode = ref `Dpor
let trace_out = ref "mc-counterexample.txt"
let failures = ref 0

let usage () =
  prerr_endline
    "usage: mc_run [--budget N] [--steps N] [--mode dpor|full] [--trace-out \
     FILE]";
  exit 2

let rec parse = function
  | [] -> ()
  | "--budget" :: n :: rest ->
    budget := int_of_string n;
    parse rest
  | "--steps" :: n :: rest ->
    steps := int_of_string n;
    parse rest
  | "--mode" :: "dpor" :: rest ->
    mode := `Dpor;
    parse rest
  | "--mode" :: "full" :: rest ->
    mode := `Full;
    parse rest
  | "--trace-out" :: f :: rest ->
    trace_out := f;
    parse rest
  | _ -> usage ()

let record_failure name outcome =
  incr failures;
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 !trace_out in
  let ppf = Format.formatter_of_out_channel oc in
  Format.fprintf ppf "== %s ==@.%a@." name Explore.pp_outcome outcome;
  close_out oc

let run_expected_verified (name, scenario) =
  let t0 = Velodrome_util.Mclock.now_ns () in
  let outcome =
    Explore.explore ~mode:!mode ~max_steps:!steps ~max_schedules:!budget
      scenario
  in
  let dt = Velodrome_util.Mclock.span_s t0 (Velodrome_util.Mclock.now_ns ()) in
  match outcome with
  | Explore.Verified _ ->
    Format.printf "ok   %-28s %a  (%.2fs)@." name Explore.pp_outcome outcome dt
  | _ ->
    Format.printf "FAIL %-28s %a@." name Explore.pp_outcome outcome;
    record_failure name outcome

let run_expected_counterexample (name, scenario) =
  let outcome =
    Explore.explore_minimized ~mode:!mode ~max_steps:!steps
      ~max_schedules:!budget scenario
  in
  match outcome with
  | Explore.Violation { trace; _ } -> (
    (* The printed schedule must replay deterministically to the same
       violation — the counterexample is a proof, not a report. *)
    let plan = List.map (fun (s : Explore.step) -> s.pid) trace in
    match Explore.replay ~max_steps:!steps scenario plan with
    | Explore.Violation _ ->
      Format.printf "ok   %-28s seeded bug flagged, replay confirms@.%a@." name
        Explore.pp_outcome outcome
    | other ->
      Format.printf "FAIL %-28s counterexample did not replay@." name;
      record_failure name other)
  | _ ->
    Format.printf "FAIL %-28s seeded bug NOT found: %a@." name
      Explore.pp_outcome outcome;
    record_failure name outcome

let () =
  parse (List.tl (Array.to_list Sys.argv));
  (if Sys.file_exists !trace_out then Sys.remove !trace_out);
  Format.printf
    "model-checking serve pool scenarios (mode %s, budget %d schedules, %d \
     steps/run)@."
    (match !mode with `Dpor -> "dpor" | `Full -> "full")
    !budget !steps;
  List.iter run_expected_verified Mc_scenarios.healthy;
  Format.printf "mutation gate: the checker must flag both mutants@.";
  List.iter run_expected_counterexample Mc_scenarios.mutants;
  if !failures > 0 then begin
    Format.printf "@.%d scenario(s) failed; traces in %s@." !failures
      !trace_out;
    exit 1
  end
