open Velodrome_trace
open Velodrome_analysis
open Helpers

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

module Common = Velodrome_harness.Common

(* --- method exclusion -------------------------------------------------------- *)

let excluded_l0 l = Ids.Label.equal l l0

let test_filter_ops_drops_begin_end () =
  let ops = [ bg t0 l0; rd t0 x; en t0; bg t0 l1; rd t0 y; en t0 ] in
  let kept = Velodrome_harness.Exclude.filter_ops ~excluded:excluded_l0 ops in
  check int "dropped one begin/end pair" 4 (List.length kept);
  check bool "l1 block survives" true
    (List.exists (function Op.Begin (_, l) -> l = l1 | _ -> false) kept);
  check bool "l0 begin gone" false
    (List.exists (function Op.Begin (_, l) -> l = l0 | _ -> false) kept)

let test_filter_ops_nested () =
  (* Excluding the outer block keeps the inner one. *)
  let ops = [ bg t0 l0; bg t0 l1; rd t0 x; en t0; en t0 ] in
  let kept = Velodrome_harness.Exclude.filter_ops ~excluded:excluded_l0 ops in
  check int "outer pair dropped" 3 (List.length kept);
  match kept with
  | [ Op.Begin (_, l); Op.Read _; Op.End _ ] ->
    check bool "inner label" true (l = l1)
  | _ -> Alcotest.fail "unexpected structure"

let test_filter_ops_keeps_result_well_formed () =
  let tr = Gen.run (Velodrome_util.Rng.create 77) Gen.default in
  let kept =
    Velodrome_harness.Exclude.filter_ops ~excluded:excluded_l0
      (Trace.to_list tr)
  in
  check bool "filtered trace well-formed" true
    (Trace.is_well_formed (Trace.of_ops kept))

let test_exclude_backend_matches_filter_ops () =
  (* The online filter and the offline pure function agree. *)
  let tr = Gen.run (Velodrome_util.Rng.create 123) Gen.default in
  let ops = Trace.to_list tr in
  let seen = ref [] in
  let module Probe = struct
    type t = unit

    let name = "probe"
    let create _ = ()
    let on_event () e = seen := e.Event.op :: !seen
    let pause_hint _ _ = false
    let finish _ = ()
    let warnings _ = []
  end in
  let packed =
    Velodrome_harness.Exclude.methods ~excluded:excluded_l0
      (Backend.make (module Probe) (Names.create ()))
  in
  List.iter (Backend.on_event packed) (Event.of_ops ops);
  let online = List.rev !seen in
  let offline = Velodrome_harness.Exclude.filter_ops ~excluded:excluded_l0 ops in
  check bool "same stream" true (online = offline)

(* --- specs ------------------------------------------------------------------- *)

let test_spec_default_checks_all () =
  check bool "default" true
    (Velodrome_harness.Spec.is_checked Velodrome_harness.Spec.default "Set.add")

let test_spec_rules () =
  let spec =
    Result.get_ok
      (Velodrome_harness.Spec.parse
         "# comment\natomic *\nnotatomic Thread.run*\nnotatomic Set.add\natomic Set.addAll\n")
  in
  let checked = Velodrome_harness.Spec.is_checked spec in
  check bool "wildcard keeps" true (checked "Vector.contains");
  check bool "glob excludes" false (checked "Thread.run17");
  check bool "exact excludes" false (checked "Set.add");
  check bool "later rule wins" true (checked "Set.addAll")

let test_spec_parse_error () =
  check bool "malformed rejected" true
    (Result.is_error (Velodrome_harness.Spec.parse "frobnicate Set.add\n"))

let test_spec_excluded_predicate () =
  let spec =
    Result.get_ok (Velodrome_harness.Spec.parse "notatomic M1\n")
  in
  let names = Names.create () in
  let m1 = Names.label names "M1" in
  let m2 = Names.label names "M2" in
  let ex = Velodrome_harness.Spec.excluded spec names in
  check bool "M1 excluded" true (ex m1);
  check bool "M2 checked" false (ex m2)

let test_spec_silences_velodrome () =
  (* Excluding Set.add turns its body into unary transactions: the
     composite violation disappears from the reports. *)
  let w = Option.get (Velodrome_workloads.Workload.find "multiset") in
  let program = w.Velodrome_workloads.Workload.build Velodrome_workloads.Workload.Small in
  let names = program.Velodrome_sim.Ast.names in
  let spec = Result.get_ok (Velodrome_harness.Spec.parse "notatomic Set.*\n") in
  let backend =
    Velodrome_harness.Exclude.methods
      ~excluded:(Velodrome_harness.Spec.excluded spec names)
      (Backend.make (Velodrome_core.Engine.backend ()) names)
  in
  let config =
    {
      Velodrome_sim.Run.default_config with
      policy = Velodrome_sim.Run.Random 3;
    }
  in
  let res = Velodrome_sim.Run.run ~config program [ backend ] in
  check int "no Set.* warnings" 0
    (List.length
       (List.filter
          (fun (w : Warning.t) ->
            match Common.label_of_warning names w with
            | Some l -> String.length l >= 4 && String.sub l 0 4 = "Set."
            | None -> false)
          res.Velodrome_sim.Run.warnings))

(* --- table plumbing ------------------------------------------------------------ *)

let test_table2_totals () =
  let mk workload atomizer_real atomizer_fa velodrome_real velodrome_fa
      missed =
    {
      Velodrome_harness.Table2.workload;
      atomizer_real;
      atomizer_fa;
      velodrome_real;
      velodrome_fa;
      missed;
      velodrome_warnings = 10;
      velodrome_blamed = 9;
    }
  in
  let rows = [ mk "a" 3 1 2 0 1; mk "b" 4 0 4 0 0 ] in
  let t = Velodrome_harness.Table2.totals rows in
  check int "real" 7 t.Velodrome_harness.Table2.atomizer_real;
  check int "fa" 1 t.Velodrome_harness.Table2.atomizer_fa;
  check int "vel real" 6 t.Velodrome_harness.Table2.velodrome_real;
  check int "missed" 1 t.Velodrome_harness.Table2.missed

let test_time_stable_positive () =
  let t =
    Velodrome_harness.Common.time_stable ~min_total:0.01 3 (fun () ->
        ignore (Array.init 1000 Fun.id))
  in
  check bool "positive" true (t > 0.0)

(* A cut-down Table 2 on one workload: the totals must match what Table 2
   claims for it (multiset: 5 real, 0 FA for both tools). *)
let test_table2_multiset_row () =
  let w = Option.get (Velodrome_workloads.Workload.find "multiset") in
  let r =
    Velodrome_harness.Table2.row_for ~size:Velodrome_workloads.Workload.Small
      ~seeds:[ 1; 2; 3 ] w
  in
  check int "atomizer real" 5 r.Velodrome_harness.Table2.atomizer_real;
  check int "atomizer fa" 0 r.Velodrome_harness.Table2.atomizer_fa;
  check int "velodrome fa" 0 r.Velodrome_harness.Table2.velodrome_fa;
  check bool "velodrome finds most" true
    (r.Velodrome_harness.Table2.velodrome_real >= 4)

(* --- the soundness gate's rendering ------------------------------------------ *)

module Gate = Velodrome_harness.Gate

let gate failures =
  { Gate.schedules = 7; dynamic_warnings = 3; pauses = 0; failures }

(* The replay report of a failed gate over a generated program names the
   first failure's schedule, whatever its kind. *)
let test_gate_replay_lines () =
  let lines =
    Gate.replay_lines ~gen_seed:7 ~families:[ "publication"; "snapshot" ]
      ~seeds:[ 1; 2; 3 ]
  in
  check
    Alcotest.(list string)
    "value violation only"
    [
      "gate: generated program FAILED: progen seed 7, family \
       publication+snapshot, schedule adversarial(seed 2)";
      "gate: replay: velodrome analyze --generated 1 --gen-seed 7 --seeds \
       1,2,3 --gate";
    ]
    (lines
       (gate
          [
            {
              Gate.schedule = "adversarial(seed 2)";
              kind = Gate.Value_unsound "event from statically-dead site t0:1";
            };
          ]));
  check
    Alcotest.(list string)
    "passed gate" [] (lines (gate []))

let test_gate_render_failures () =
  let g =
    gate
      [
        { Gate.schedule = "round-robin"; kind = Gate.Proved_blamed "A.m" };
        {
          Gate.schedule = "random(seed 1)";
          kind = Gate.Uncovered_race { analysis = "eraser"; var = "x" };
        };
      ]
  in
  check bool "failed" false (Gate.ok g);
  check Alcotest.string "human"
    "soundness gate: FAILED: proved block A.m blamed under round-robin\n\
     soundness gate: FAILED: eraser warned about x under random(seed 1) but \
     no static race pair covers it\n"
    (Format.asprintf "%a" (Gate.pp ~values:true) g);
  let open Velodrome_util.Json in
  let none = List [] in
  check bool "json" true
    (Gate.to_json g
    = Obj
        [
          ("schedules", Int 7);
          ("dynamic_warnings", Int 3);
          ( "mismatches",
            List
              [
                Obj
                  [ ("label", String "A.m"); ("schedule", String "round-robin") ];
              ] );
          ("uncovered_blames", none);
          ( "uncovered_races",
            List
              [
                Obj
                  [
                    ("var", String "x");
                    ("analysis", String "eraser");
                    ("schedule", String "random(seed 1)");
                  ];
              ] );
          ("engine_disagreements", none);
          ("value_violations", none);
          ("ok", Bool false);
        ])

let test_gate_schedules () =
  check Alcotest.(list string) "names"
    [ "round-robin"; "random(seed 7)"; "adversarial(seed 7)";
      "random(seed 9)"; "adversarial(seed 9)" ]
    (List.map fst (Gate.schedules [ 7; 9 ]))

(* End to end: the gate passes a program against its own statics, and
   fails it against statics that miss its races. *)
let test_gate_run () =
  let module Statics = Velodrome_statics.Statics in
  let p = scan_program () in
  let g = Gate.run p (Statics.analyze p) ~seeds:[ 7 ] in
  if not (Gate.ok g) then
    Alcotest.failf "gate failed on its own statics:\n%s"
      (Format.asprintf "%a" (Gate.pp ~values:false) g);
  check int "schedules" 3 g.Gate.schedules;
  check bool "races warned" true (g.Gate.dynamic_warnings > 0);
  let stale = Statics.analyze (scan_program ~writes:false ()) in
  let g = Gate.run p stale ~seeds:[ 7 ] in
  check bool "failed" false (Gate.ok g);
  check bool "uncovered race under round-robin" true
    (List.exists
       (fun f ->
         f.Gate.schedule = "round-robin"
         &&
         match f.Gate.kind with
         | Gate.Uncovered_race { var; _ } -> var = "a" || var = "b"
         | _ -> false)
       g.Gate.failures)

(* --- analyze's report ----------------------------------------------------- *)

module Report = Velodrome_harness.Report

let scan_target =
  { Report.name = "scan"; program = scan_program (); pos = (fun _ -> None);
    generated = None }

let report ?(races = true) ?gate ?(predict = false) () =
  Report.run
    { Report.values = true; show_values = false; races; graph = false; gate;
      predict }
    [ scan_target ]

(* The human report is the statics renderers' output in a fixed order,
   with a header per target unless the report is about one named
   program. *)
let test_report_human () =
  let module Statics = Velodrome_statics.Statics in
  let st = Statics.analyze scan_target.Report.program in
  let expected =
    Format.asprintf "%a%a" (Statics.pp_human ~pos:scan_target.Report.pos) st
      (Statics.pp_races_human ~pos:scan_target.Report.pos) st
  in
  let r = report () in
  let human single = Format.asprintf "%a" (Report.pp_human ~single) r in
  check Alcotest.string "single" expected (human true);
  check Alcotest.string "with header" ("== scan ==\n" ^ expected) (human false);
  check int "unproved block exits 1" 1 (Report.exit_code r)

let test_report_json () =
  let open Velodrome_util.Json in
  let fields = function Obj f -> f | _ -> Alcotest.fail "not an object" in
  let keys r = List.map fst (fields (Report.to_json ~single:true r)) in
  let r = report () in
  check Alcotest.(list string) "statics, then races"
    [ "file"; "blocks"; "summary"; "races" ] (keys r);
  check bool "array of one unless single" true
    (Report.to_json ~single:false r = List [ Report.to_json ~single:true r ]);
  let r = report ~races:false ~gate:[ 7 ] ~predict:true () in
  check Alcotest.(list string) "gate and predict"
    [ "file"; "blocks"; "summary"; "gate"; "predict" ] (keys r);
  check int "both gates pass" 0 (Report.exit_code r);
  let predict = List.assoc "predict" (fields (Report.to_json ~single:true r)) in
  match List.assoc "predictions" (fields predict) with
  | List [ p ] ->
    check bool "replay line" true
      (List.assoc "replay" (fields p)
      = String
          "velodrome analyze scan --block scan --schedule \"t1@0.0 -> t0@0 \
           -> t0@1 -> t1@0.1\"")
  | _ -> Alcotest.fail "expected one prediction"

let test_report_replay () =
  let replay schedule =
    match Report.replay scan_target ~block:"scan" ~schedule with
    | Ok r -> Format.asprintf "%a" (Report.pp_replay ~block:"scan") r
    | Error msg -> "error: " ^ msg
  in
  check Alcotest.string "certified"
    "scan: certified violation at event 4 under the forced schedule\n"
    (replay "t1@0.0 -> t0@0 -> t0@1 -> t1@0.1");
  check Alcotest.string "serial schedule"
    "scan: not certified: replayed but the engine trio did not flame the \
     block\n"
    (replay "t1@0.0 -> t1@0.1 -> t0@0");
  check Alcotest.string "unknown block" "error: no atomic block named \"nope\""
    (match Report.replay scan_target ~block:"nope" ~schedule:"t0@0" with
    | Error msg -> "error: " ^ msg
    | Ok _ -> "ok");
  check bool "bad schedule" true
    (String.starts_with ~prefix:"error: bad" (replay "t0@@"))

(* The adversarial schedules must really be adversarial: the Atomizer's
   pause hints make them pause, so they differ from the random schedules
   of the same seeds. *)
let test_gate_adversarial_pauses () =
  let module Workload = Velodrome_workloads.Workload in
  let w = Option.get (Workload.find "multiset") in
  let program = w.Workload.build Workload.Small in
  let g =
    Gate.run program (Velodrome_statics.Statics.analyze program) ~seeds:[ 7 ]
  in
  check bool "adversarial(seed 7) pauses" true (g.Gate.pauses > 0)

let suite =
  ( "harness",
    [
      Alcotest.test_case "filter_ops drops" `Quick test_filter_ops_drops_begin_end;
      Alcotest.test_case "filter_ops nested" `Quick test_filter_ops_nested;
      Alcotest.test_case "filter_ops well-formed" `Quick
        test_filter_ops_keeps_result_well_formed;
      Alcotest.test_case "online = offline filter" `Quick
        test_exclude_backend_matches_filter_ops;
      Alcotest.test_case "spec default" `Quick test_spec_default_checks_all;
      Alcotest.test_case "spec rules" `Quick test_spec_rules;
      Alcotest.test_case "spec parse error" `Quick test_spec_parse_error;
      Alcotest.test_case "spec excluded predicate" `Quick
        test_spec_excluded_predicate;
      Alcotest.test_case "spec silences velodrome" `Quick
        test_spec_silences_velodrome;
      Alcotest.test_case "table2 totals" `Quick test_table2_totals;
      Alcotest.test_case "time_stable" `Quick test_time_stable_positive;
      Alcotest.test_case "table2 multiset row" `Slow test_table2_multiset_row;
      Alcotest.test_case "gate replay lines" `Quick test_gate_replay_lines;
      Alcotest.test_case "gate failure rendering" `Quick
        test_gate_render_failures;
      Alcotest.test_case "gate schedules" `Quick test_gate_schedules;
      Alcotest.test_case "gate run" `Quick test_gate_run;
      Alcotest.test_case "gate adversarial pauses" `Quick
        test_gate_adversarial_pauses;
      Alcotest.test_case "report human" `Quick test_report_human;
      Alcotest.test_case "report json" `Quick test_report_json;
      Alcotest.test_case "report schedule replay" `Quick test_report_replay;
    ] )
