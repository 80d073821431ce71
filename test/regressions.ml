(* Pinned regression corpus: generated programs and schedules that once
   exposed (or nearly exposed) back-end disagreements, replayed
   deterministically on every `dune runtest` so fuzz finds never regress
   silently.

   Each row is a (progen seed, family, schedule) triple. The family is
   recorded and asserted so a change to the generator that silently
   repurposes a pinned seed is caught rather than quietly testing a
   different program. Every packaged back-end is attached to the run
   (catching crashes and warning-shape regressions), and the recorded
   trace is held to the three-way engine agreement. *)

open Velodrome_analysis
open Velodrome_sim

type schedule = RR | Rand of int | Adv of int

let pp_schedule = function
  | RR -> "round-robin"
  | Rand s -> Printf.sprintf "random(seed %d)" s
  | Adv s -> Printf.sprintf "adversarial(seed %d)" s

let config_of = function
  | RR -> { Run.default_config with policy = Run.Round_robin }
  | Rand s -> { Run.default_config with policy = Run.Random s }
  | Adv s ->
    { Run.default_config with policy = Run.Random s; adversarial = true }

(* The corpus. Seeds picked to cover every progen family under every
   schedule family; extend with the seed, family and schedule from any
   future fuzz failure's replay line. *)
let corpus : (int * string * schedule) list =
  [
    (1, "publication+snapshot", RR);
    (2, "latent+dispatch", Rand 7);
    (3, "publication+snapshot+latent", Adv 7);
    (7, "snapshot+latent+dispatch", Adv 2);
    (11, "publication+snapshot+latent", RR);
    (13, "dispatch", Rand 3);
    (42, "snapshot+latent+dispatch", Adv 5);
    (101, "snapshot+latent+dispatch", RR);
    (257, "latent", Rand 11);
    (1009, "publication+snapshot+dispatch", Adv 11);
  ]

let all_packaged names =
  [
    Backend.make (Velodrome_core.Engine.backend ()) names;
    Backend.make (Velodrome_core.Basic.backend ()) names;
    Backend.make (Velodrome_core.Aero.backend ()) names;
    Backend.make (Velodrome_eraser.Eraser.backend ()) names;
    Backend.make (Velodrome_atomizer.Atomizer.backend ()) names;
    Backend.make (Velodrome_hbrace.Hbrace.backend ()) names;
    Backend.make (Velodrome_twopl.Twopl.backend ()) names;
  ]

let replay (seed, family, schedule) =
  let program, info =
    Progen.generate_info (Velodrome_util.Rng.create seed)
  in
  let actual = String.concat "+" info.Progen.families in
  if actual <> family then
    Alcotest.failf
      "regression corpus drift: progen seed %d now generates family %s \
       (pinned as %s)"
      seed actual family;
  let config =
    { (config_of schedule) with Run.record_trace = true }
  in
  let res =
    Run.run ~config program
      (all_packaged program.Ast.names)
  in
  match
    Velodrome_harness.Trio.check
      (Velodrome_trace.Names.create ())
      (Option.get res.Run.trace)
  with
  | Ok _ -> ()
  | Error msg ->
    Alcotest.failf
      "regression: progen seed %d, family %s, schedule %s: %s@.replay: \
       velodrome analyze --generated 1 --gen-seed %d --seeds 7 --gate"
      seed family (pp_schedule schedule) msg seed

let test_corpus () = List.iter replay corpus

(* Latent-family pins: seeds whose generated program carries the
   `latent` family (inconsistent-snapshot scan + write-skew pair).
   These blocks are round-robin-clean by construction — the plain
   observation run must NOT blame them — yet the witness-guided
   predictor must find and certify the scan block on every seed. A
   generator change that makes the latent blocks trivially visible (or
   invisible to prediction) trips this before it skews the study. *)
let latent_seeds = [ 2; 3; 4; 5; 7; 12; 14; 16; 34; 44 ]

let has_family info f = List.mem f info.Progen.families

let replay_latent seed =
  let program, info =
    Progen.generate_info (Velodrome_util.Rng.create seed)
  in
  if not (has_family info "latent") then
    Alcotest.failf
      "latent pin drift: progen seed %d no longer generates the latent \
       family (now %s)"
      seed
      (String.concat "+" info.Progen.families);
  let st = Velodrome_statics.Statics.analyze program in
  let p = Velodrome_predict.Predict.run program st in
  let names = Velodrome_statics.Statics.names st in
  let is_latent l =
    let n = Velodrome_trace.Names.label_name names l in
    String.length n >= 8 && String.sub n 0 8 = "gen.lat."
  in
  (match
     List.filter is_latent (Velodrome_predict.Predict.observed_blamed p)
   with
  | [] -> ()
  | l :: _ ->
    Alcotest.failf
      "latent pin: progen seed %d: round-robin observation already blames \
       %s — the latent family is no longer latent"
      seed
      (Velodrome_trace.Names.label_name names l));
  let predicted_scan =
    List.exists
      (fun (pr : Velodrome_predict.Predict.prediction) ->
        pr.Velodrome_predict.Predict.name = "gen.lat.scan")
      (Velodrome_predict.Predict.predictions p)
  in
  if not predicted_scan then
    Alcotest.failf
      "latent pin: progen seed %d: prediction failed to certify \
       gen.lat.scan@.replay: velodrome analyze --generated 1 --gen-seed %d \
       --predict"
      seed seed

let test_latent () = List.iter replay_latent latent_seeds

(* Dispatch-workload pin: the acceptance example for the value analysis.
   Both blocks of the tid-dispatch workload must stay May_violate with
   the analysis off and Proved_atomic with it on — one per proof rule. A
   statics change that erodes either side (the analysis stops sharpening,
   or the workload becomes provable without it) trips this pin. *)
let test_dispatch_delta () =
  let module Statics = Velodrome_statics.Statics in
  let module Workload = Velodrome_workloads.Workload in
  let program =
    (Option.get (Workload.find "dispatch")).Workload.build Workload.Small
  in
  let off = Statics.analyze ~values:false program in
  let on_ = Statics.analyze program in
  List.iter
    (fun (b : Statics.block) ->
      match b.Statics.verdict with
      | Statics.May_violate _ -> ()
      | _ ->
        Alcotest.failf "dispatch pin: %s no longer May_violate without values"
          b.Statics.name)
    (Statics.blocks off);
  if Statics.proved_lipton_count on_ <> 1 then
    Alcotest.fail "dispatch pin: expected exactly one Lipton-proved block";
  if Statics.proved_cycle_free_count on_ <> 1 then
    Alcotest.fail "dispatch pin: expected exactly one cycle-free-proved block"

let suite =
  ( "regressions",
    [
      Alcotest.test_case "pinned generated corpus" `Quick test_corpus;
      Alcotest.test_case "pinned latent-family seeds" `Quick test_latent;
      Alcotest.test_case "pinned dispatch verdict delta" `Quick
        test_dispatch_delta;
    ] )
