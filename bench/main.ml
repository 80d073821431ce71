(* The reproduction-study harness: regenerates the tracked BENCH_*.json
   artifacts.

   - [--engine]: BENCH_engine.json, the three-way engine comparison
     (Engine, AeroDrome, basic Figure 2) in events/sec and bytes/event;
   - [--statics]: BENCH_statics.json, what the static pre-pass proves and
     how long it takes;
   - [--predict]: BENCH_predict.json, witness-guided prediction against
     adversarial scheduling.

   No suite flag runs all three; [--smoke] shrinks every fixture. The paper's
   tables and studies are printed by [velodrome table1], [table2] and
   [study]; the end-to-end speed benchmark is [perfbench/].

   Run with: dune exec bench/main.exe -- [--smoke] [--engine | ...] *)

module Mclock = Velodrome_util.Mclock
open Velodrome_trace
open Velodrome_analysis
open Velodrome_workloads

(* --- shared helpers --------------------------------------------------------- *)

(* Wall time of [f] in seconds, on the monotonic clock (gettimeofday can
   step under NTP). *)
let time_once f =
  let t0 = Mclock.now_ns () in
  f ();
  Int64.to_float (Int64.sub (Mclock.now_ns ()) t0) /. 1e9

(* Best-of-[repeats] wall time of [f]. *)
let time_best ~repeats f =
  let best = ref infinity in
  for _ = 1 to repeats do
    best := Float.min !best (time_once f)
  done;
  !best

(* Median wall time of [runs] calls of [f]: one fast or slow phase of a
   shared host moves it less than it moves the best run. *)
let time_median ~runs f =
  let ts = Array.init runs (fun _ -> time_once f) in
  Array.sort Float.compare ts;
  ts.(runs / 2)

let record_workload_trace name size seed =
  let w = Option.get (Workload.find name) in
  let program = w.Workload.build size in
  let res =
    Velodrome_harness.Common.run_once ~seed ~record_trace:true program
      (fun _ -> [])
  in
  (program.Velodrome_sim.Ast.names, Option.get res.Velodrome_sim.Run.trace)

(* --- Engine throughput (BENCH_engine.json) ----------------------------------- *)

(* The checking hot path itself: replay pre-recorded event arrays through
   the optimized Engine, the AeroDrome vector-clock engine and the basic
   Figure 2 engine, reporting events/sec and bytes-allocated/event for
   each — a three-way comparison, since AeroDrome is the ROADMAP's
   algorithmic route past the graph engine's throughput ceiling. Covers
   all workloads plus synthetic high-contention traces (where vector
   clocks should win), so representation changes in [lib/core] show up
   as a tracked artifact rather than a one-off measurement. *)

type engine_row = {
  g_fixture : string;
  g_size : string;
  g_events : int;
  g_engine_eps : float;
  g_engine_bpe : float;  (** bytes allocated per event, Engine replay *)
  g_aero_eps : float;
  g_aero_bpe : float;
  g_basic_eps : float;
  g_basic_bpe : float;
  g_warnings : int;
}

let events_of_trace tr = Array.of_list (Event.of_ops (Trace.to_list tr))

let replay_engine_events ~names events =
  let eng = Velodrome_core.Engine.create names in
  Array.iter (Velodrome_core.Engine.on_event eng) events;
  Velodrome_core.Engine.finish eng;
  eng

let replay_basic_events ~names events =
  let eng = Velodrome_core.Basic.create names in
  Array.iter (Velodrome_core.Basic.on_event eng) events;
  Velodrome_core.Basic.finish eng;
  eng

let replay_aero_events ~names events =
  let eng = Velodrome_core.Aero.create names in
  Array.iter (Velodrome_core.Aero.on_event eng) events;
  Velodrome_core.Aero.finish eng;
  eng

(* Allocation per event, measured over one full replay (including engine
   creation, which amortizes to nothing on real traces). *)
let bytes_per_event ~events f =
  let b0 = Velodrome_util.Stats.allocated_bytes () in
  ignore (Sys.opaque_identity (f ()));
  let b1 = Velodrome_util.Stats.allocated_bytes () in
  (b1 -. b0) /. float_of_int (max 1 events)

(* The basic engine is quadratic-ish on dense traces; cap the prefix it
   replays so the bench stays fast, and report events/sec on that
   prefix. *)
let basic_cap = 30_000

(* Each replay rate is the median of this many timed replays. *)
let engine_runs = 5

let engine_bench_row ~size_name ~names ~fixture trace =
  let events = events_of_trace trace in
  let n = Array.length events in
  let basic_events =
    if n <= basic_cap then events else Array.sub events 0 basic_cap
  in
  let nb = Array.length basic_events in
  let t_engine =
    time_median ~runs:engine_runs (fun () ->
        ignore (replay_engine_events ~names events))
  in
  let eng = ref (replay_engine_events ~names [||]) in
  let engine_bpe =
    bytes_per_event ~events:n (fun () ->
        eng := replay_engine_events ~names events;
        !eng)
  in
  let t_aero =
    time_median ~runs:engine_runs (fun () ->
        ignore (replay_aero_events ~names events))
  in
  let aero_bpe =
    bytes_per_event ~events:n (fun () -> replay_aero_events ~names events)
  in
  let t_basic =
    time_median ~runs:engine_runs (fun () ->
        ignore (replay_basic_events ~names basic_events))
  in
  let basic_bpe =
    bytes_per_event ~events:nb (fun () ->
        replay_basic_events ~names basic_events)
  in
  {
    g_fixture = fixture;
    g_size = size_name;
    g_events = n;
    g_engine_eps = float_of_int n /. t_engine;
    g_engine_bpe = engine_bpe;
    g_aero_eps = float_of_int n /. t_aero;
    g_aero_bpe = aero_bpe;
    g_basic_eps = float_of_int nb /. t_basic;
    g_basic_bpe = basic_bpe;
    g_warnings = List.length (Velodrome_core.Engine.warnings !eng);
  }

let synthetic_trace ~steps ~threads ~vars ~locks ~seed =
  let cfg =
    { Velodrome_trace.Gen.dense with threads; vars; locks; labels = 8; steps }
  in
  Gen.run (Velodrome_util.Rng.create seed) cfg

let engine_row_json r =
  let open Velodrome_util.Json in
  Obj
    [
      ("fixture", String r.g_fixture);
      ("size", String r.g_size);
      ("events", Int r.g_events);
      ("engine_events_per_sec", Float r.g_engine_eps);
      ("engine_bytes_per_event", Float r.g_engine_bpe);
      ("aero_events_per_sec", Float r.g_aero_eps);
      ("aero_bytes_per_event", Float r.g_aero_bpe);
      ("basic_events_per_sec", Float r.g_basic_eps);
      ("basic_bytes_per_event", Float r.g_basic_bpe);
      ("warnings", Int r.g_warnings);
    ]

let run_engine_benches ~smoke =
  let size = if smoke then Workload.Small else Workload.Medium in
  let size_name = if smoke then "small" else "medium" in
  let workload_rows =
    List.map
      (fun (w : Workload.t) ->
        let names, trace = record_workload_trace w.Workload.name size 42 in
        engine_bench_row ~size_name ~names ~fixture:w.Workload.name
          trace)
      Workload.all
  in
  let synthetic_rows =
    let steps = if smoke then 20_000 else 120_000 in
    List.map
      (fun (name, threads, vars, locks) ->
        let names = Names.create () in
        let trace = synthetic_trace ~steps ~threads ~vars ~locks ~seed:2024 in
        engine_bench_row ~size_name:"synthetic" ~names ~fixture:name
          trace)
      [ ("synthetic-dense", 8, 2, 1); ("synthetic-wide", 16, 64, 8) ]
  in
  let rows = workload_rows @ synthetic_rows in
  Printf.printf "%-16s %-10s %9s %13s %9s %13s %9s %13s %9s %5s\n" "fixture"
    "size" "events" "engine-ev/s" "eng-B/ev" "aero-ev/s" "aer-B/ev"
    "basic-ev/s" "bas-B/ev" "warn";
  List.iter
    (fun r ->
      Printf.printf
        "%-16s %-10s %9d %13.0f %9.1f %13.0f %9.1f %13.0f %9.1f %5d\n"
        r.g_fixture r.g_size r.g_events r.g_engine_eps r.g_engine_bpe
        r.g_aero_eps r.g_aero_bpe r.g_basic_eps r.g_basic_bpe r.g_warnings)
    rows;
  let oc = open_out "BENCH_engine.json" in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Velodrome_util.Json.to_channel oc
        (Velodrome_util.Json.List (List.map engine_row_json rows)));
  Printf.printf "wrote BENCH_engine.json (%d fixtures)\n" (List.length rows)

(* --- Static verdicts (BENCH_statics.json) ------------------------------------ *)

(* What does the static pre-pass prove on each fixture, and what does it
   cost? Every column but the two timings is a count that CI reproduces
   with [validate_bench --same-counts]. *)

module Statics = Velodrome_statics.Statics

type statics_row = {
  s_fixture : string;
  s_size : string;
  blocks : int;
  proved : int;
  proved_lipton : int;  (** proof-rule breakdown: Lipton reduction *)
  proved_cycle_free : int;  (** conflict-graph cycle-freedom *)
  may_violate : int;
  unknown : int;
  races : int;  (** static race pairs (pairwise rule) *)
  dead_sites : int;  (** sites the value analysis proves unreachable *)
  race_pair_delta : int;
      (** race pairs the value analysis removes vs a values-off run *)
  proved_values_delta : int;
      (** blocks proved only because of the value analysis *)
  analysis_ms : float;
      (** wall time of one full static analysis, monotonic clock *)
  values_analysis_ms : float;
      (** wall time of the value analysis alone, monotonic clock *)
}

let statics_bench ~repeats ~size ~size_name fixture =
  let w = Option.get (Workload.find fixture) in
  let program = w.Workload.build size in
  let st = Statics.analyze program in
  let st_novalues = Statics.analyze ~values:false program in
  let analysis_ms =
    1000. *. time_best ~repeats (fun () -> ignore (Statics.analyze program))
  in
  let values_analysis_ms =
    1000.
    *. time_best ~repeats (fun () ->
           ignore (Velodrome_statics.Values.analyze program))
  in
  {
    s_fixture = fixture;
    s_size = size_name;
    blocks = Statics.block_count st;
    proved = Statics.proved_count st;
    proved_lipton = Statics.proved_lipton_count st;
    proved_cycle_free = Statics.proved_cycle_free_count st;
    may_violate = Statics.may_violate_count st;
    unknown = Statics.unknown_count st;
    races = Statics.race_pair_count st;
    dead_sites = Statics.dead_site_count st;
    race_pair_delta =
      Statics.race_pair_count st_novalues - Statics.race_pair_count st;
    proved_values_delta =
      Statics.proved_count st - Statics.proved_count st_novalues;
    analysis_ms;
    values_analysis_ms;
  }

let statics_row_json r =
  let open Velodrome_util.Json in
  Obj
    [
      ("fixture", String r.s_fixture);
      ("size", String r.s_size);
      ("blocks", Int r.blocks);
      ("proved", Int r.proved);
      ("proved_lipton", Int r.proved_lipton);
      ("proved_cycle_free", Int r.proved_cycle_free);
      ("may_violate", Int r.may_violate);
      ("unknown", Int r.unknown);
      ("races", Int r.races);
      ("dead_sites", Int r.dead_sites);
      ("race_pair_delta", Int r.race_pair_delta);
      ("proved_values_delta", Int r.proved_values_delta);
      ("analysis_ms", Float r.analysis_ms);
      ("values_analysis_ms", Float r.values_analysis_ms);
    ]

let run_statics_benches ~smoke =
  let fixtures =
    [ "multiset"; "jbb"; "mtrt"; "raja"; "handoff"; "snapshot"; "dispatch" ]
  in
  let rows =
    if smoke then
      List.map
        (statics_bench ~repeats:2 ~size:Workload.Small ~size_name:"small")
        fixtures
    else
      List.map
        (statics_bench ~repeats:3 ~size:Workload.Medium ~size_name:"medium")
        fixtures
  in
  Printf.printf "%-12s %-7s %7s %9s %6s %6s %6s %7s %9s %9s\n" "fixture"
    "size" "blocks" "lip/cf" "proved" "races" "dead" "vals-d" "anls-ms"
    "vals-ms";
  List.iter
    (fun r ->
      Printf.printf "%-12s %-7s %7d %5d/%3d %6d %6d %6d %3d/%3d %9.2f %9.2f\n"
        r.s_fixture r.s_size r.blocks r.proved_lipton r.proved_cycle_free
        r.proved r.races r.dead_sites r.race_pair_delta r.proved_values_delta
        r.analysis_ms r.values_analysis_ms)
    rows;
  let oc = open_out "BENCH_statics.json" in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Velodrome_util.Json.to_channel oc
        (Velodrome_util.Json.List (List.map statics_row_json rows)));
  Printf.printf "wrote BENCH_statics.json (%d fixtures)\n" (List.length rows)

(* --- Witness-guided prediction (BENCH_predict.json) --------------------------- *)

(* The predictive-atomicity study. For every workload and a sweep of
   generated programs, run the witness-guided predictor (one round-robin
   observation, then forced replays of static witness schedules) and the
   pre-existing adversarial-scheduler baseline (Atomizer-guided pausing,
   one run per seed, the Study S2 configuration), and count the unique
   violating blocks each strategy certifies. Every emitted prediction is
   re-replayed from its schedule and re-certified by the engine trio, so
   the artifact's `uncertified` field is an honest recount, not an echo
   of the predictor's claim. The tracked claim: prediction from a single
   observation finds strictly more unique violating blocks than the
   adversarial sweep. *)

module Predict = Velodrome_predict.Predict
module SSet = Set.Make (String)

type predict_row = {
  p_fixture : string;
  p_blocks : int;
  p_may_violate : int;
  p_predicted : int;
  p_certified : int;  (** predictions surviving the independent recheck *)
  p_unpredicted : int;  (** may-violate blocks no plan certified *)
  p_observed_blamed : int;  (** blocks the plain observation already flames *)
  p_adversarial : int;  (** unique blocks blamed across the adversarial runs *)
  p_rr_plus_predicted : int;  (** unique blocks: observation + predictions *)
  p_predict_ms : float;
}

let adversarial_blamed program seeds =
  let names = program.Velodrome_sim.Ast.names in
  List.fold_left
    (fun acc seed ->
      let res =
        Velodrome_harness.Common.run_once ~seed ~adversarial:true program
          (fun n ->
            [
              Backend.make (Velodrome_atomizer.Atomizer.backend ()) n;
              Backend.make (Velodrome_core.Engine.backend ()) n;
            ])
      in
      List.fold_left
        (fun acc (w : Warning.t) ->
          if w.Warning.analysis = "velodrome" && w.Warning.blamed then
            match Velodrome_harness.Common.label_of_warning names w with
            | Some l -> SSet.add l acc
            | None -> acc
          else acc)
        acc res.Velodrome_sim.Run.warnings)
    SSet.empty seeds

let predict_bench ~seeds ~fixture program =
  let names = program.Velodrome_sim.Ast.names in
  let st = Statics.analyze program in
  let p = ref (Predict.run program st) in
  let predict_ms =
    1000. *. time_best ~repeats:1 (fun () -> p := Predict.run program st)
  in
  let p = !p in
  let preds = Predict.predictions p in
  let certified =
    List.length preds - List.length (Predict.recheck program p)
  in
  let observed =
    SSet.of_list
      (List.map
         (Names.label_name names)
         (Predict.observed_blamed p))
  in
  let predicted_names =
    SSet.of_list (List.map (fun (pr : Predict.prediction) -> pr.Predict.name) preds)
  in
  let adv = adversarial_blamed program seeds in
  {
    p_fixture = fixture;
    p_blocks = Statics.block_count st;
    p_may_violate = Statics.may_violate_count st;
    p_predicted = List.length preds;
    p_certified = certified;
    p_unpredicted = Predict.unpredicted_count p;
    p_observed_blamed = SSet.cardinal observed;
    p_adversarial = SSet.cardinal adv;
    p_rr_plus_predicted = SSet.cardinal (SSet.union observed predicted_names);
    p_predict_ms = predict_ms;
  }

let predict_row_json r =
  let open Velodrome_util.Json in
  Obj
    [
      ("fixture", String r.p_fixture);
      ("blocks", Int r.p_blocks);
      ("may_violate", Int r.p_may_violate);
      ("predicted", Int r.p_predicted);
      ("certified", Int r.p_certified);
      ("uncertified", Int (r.p_predicted - r.p_certified));
      ("unpredicted", Int r.p_unpredicted);
      ("observed_blamed", Int r.p_observed_blamed);
      ("adversarial_unique", Int r.p_adversarial);
      ("rr_plus_predicted_unique", Int r.p_rr_plus_predicted);
      ("predict_ms", Float r.p_predict_ms);
    ]

let sum f rows = List.fold_left (fun a r -> a + f r) 0 rows

let run_predict_benches ~smoke =
  (* The Study S2 adversarial configuration: one adversarial run per
     seed, default pause budget. *)
  let seeds = if smoke then [ 1; 2 ] else [ 1; 2; 3; 4; 5 ] in
  let size = if smoke then Workload.Small else Workload.Medium in
  let progen_count = if smoke then 30 else 300 in
  let workload_rows =
    List.map
      (fun (w : Workload.t) ->
        predict_bench ~seeds ~fixture:w.Workload.name (w.Workload.build size))
      Workload.all
  in
  let progen_rows =
    List.init progen_count (fun k ->
        let s = k + 1 in
        let program, _ =
          Velodrome_sim.Progen.generate_info (Velodrome_util.Rng.create s)
        in
        predict_bench ~seeds ~fixture:(Printf.sprintf "progen-%d" s) program)
  in
  Printf.printf "%-14s %7s %7s %10s %10s %7s %10s %8s %8s %11s\n" "fixture"
    "blocks" "may-v" "predicted" "certified" "unpred" "obs-blame" "adv-uniq"
    "rr+pred" "predict-ms";
  List.iter
    (fun r ->
      Printf.printf "%-14s %7d %7d %10d %10d %7d %10d %8d %8d %11.2f\n"
        r.p_fixture r.p_blocks r.p_may_violate r.p_predicted r.p_certified
        r.p_unpredicted r.p_observed_blamed r.p_adversarial
        r.p_rr_plus_predicted r.p_predict_ms)
    workload_rows;
  let adv_total = sum (fun r -> r.p_adversarial) (workload_rows @ progen_rows) in
  let rr_pred_total =
    sum (fun r -> r.p_rr_plus_predicted) (workload_rows @ progen_rows)
  in
  let uncertified_total =
    sum (fun r -> r.p_predicted - r.p_certified) (workload_rows @ progen_rows)
  in
  Printf.printf
    "progen sweep: %d programs, %d predicted (%d certified), adversarial \
     %d unique vs rr+predicted %d unique\n"
    progen_count
    (sum (fun r -> r.p_predicted) progen_rows)
    (sum (fun r -> r.p_certified) progen_rows)
    (sum (fun r -> r.p_adversarial) progen_rows)
    (sum (fun r -> r.p_rr_plus_predicted) progen_rows);
  Printf.printf
    "total: adversarial %d unique vs rr+predicted %d unique blocks \
     (strict dominance: %b), %d uncertified\n"
    adv_total rr_pred_total
    (rr_pred_total > adv_total)
    uncertified_total;
  let open Velodrome_util.Json in
  let progen_summary =
    Obj
      [
        ("programs", Int progen_count);
        ("seed_start", Int 1);
        ("predicted", Int (sum (fun r -> r.p_predicted) progen_rows));
        ("certified", Int (sum (fun r -> r.p_certified) progen_rows));
        ( "uncertified",
          Int (sum (fun r -> r.p_predicted - r.p_certified) progen_rows) );
        ( "observed_blamed",
          Int (sum (fun r -> r.p_observed_blamed) progen_rows) );
        ("adversarial_unique", Int (sum (fun r -> r.p_adversarial) progen_rows));
        ( "rr_plus_predicted_unique",
          Int (sum (fun r -> r.p_rr_plus_predicted) progen_rows) );
        ( "predict_ms_total",
          Float
            (List.fold_left (fun a r -> a +. r.p_predict_ms) 0. progen_rows) );
      ]
  in
  let doc =
    Obj
      [
        ("workloads", List (List.map predict_row_json workload_rows));
        ("progen", progen_summary);
        ( "summary",
          Obj
            [
              ( "programs",
                Int (List.length workload_rows + progen_count) );
              ( "predicted",
                Int (sum (fun r -> r.p_predicted) (workload_rows @ progen_rows))
              );
              ( "certified",
                Int (sum (fun r -> r.p_certified) (workload_rows @ progen_rows))
              );
              ("uncertified", Int uncertified_total);
              ( "observed_blamed",
                Int
                  (sum
                     (fun r -> r.p_observed_blamed)
                     (workload_rows @ progen_rows)) );
              ("adversarial_unique", Int adv_total);
              ("rr_plus_predicted_unique", Int rr_pred_total);
              ("strict_dominance", Bool (rr_pred_total > adv_total));
            ] );
      ]
  in
  let oc = open_out "BENCH_predict.json" in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> Velodrome_util.Json.to_channel oc doc);
  Printf.printf "wrote BENCH_predict.json (%d workloads, %d generated)\n"
    (List.length workload_rows)
    progen_count

let suites =
  [
    ("--engine", "Engine checking throughput", run_engine_benches);
    ("--statics", "Static verdicts", run_statics_benches);
    ( "--predict",
      "Witness-guided prediction vs adversarial scheduling",
      run_predict_benches );
  ]

let () =
  let given flag = Array.exists (( = ) flag) Sys.argv in
  let smoke = given "--smoke" in
  let chosen = List.filter (fun (flag, _, _) -> given flag) suites in
  List.iteri
    (fun i (_, title, run) ->
      if i > 0 then print_newline ();
      Printf.printf "=== %s ===\n%!" title;
      run ~smoke)
    (if chosen = [] then suites else chosen)
