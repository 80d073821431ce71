(* The repository's end-to-end benchmark.

   bench.exe --cli EXE --workload NAME --seed N --seconds S --trace 0|1
   bench.exe --cli EXE --self-test

   Each workload generates its corpus in-process from the seed, computes
   reference verdicts, and then runs the built CLI over it one child at a
   time, checking every result. With --trace 0 it reports the end-to-end
   metrics; with --trace 1 it times each layer in-process instead
   (Layers). The last line of stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

module Mclock = Velodrome_util.Mclock

type mode = Stream | Inmem | Serve

type workload = { name : string; mode : mode; corpus : tiny:bool -> int -> (Corpus.spec * bool) list }

let workloads =
  [
    { name = "check-stream"; mode = Stream; corpus = Corpus.long_traces };
    { name = "check-inmem"; mode = Inmem; corpus = Corpus.long_traces };
    { name = "serve-mixed"; mode = Serve; corpus = Corpus.serve_mix };
  ]

(* Every metric with its unit: BENCHMARK.json declares the same lists and
   the self-test holds the two in agreement. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("events_per_s", "1/s");
    ("peak_rss_mb", "MB");
    ("stream_ms_p50", "ms");
    ("stream_ms_p99", "ms");
  ]

let per_layer =
  [
    ("trace_codec.decode_ns_per_event", "ns");
    ("trace_codec.decode_bytes_per_event", "B");
    ("trace_codec.header_us_per_stream", "us");
    ("trace_codec.read_file_ns_per_event", "ns");
    ("trace_codec.read_file_bytes_per_event", "B");
    ("trace.check_ns_per_event", "ns");
    ("backend.run_trace_ns_per_event", "ns");
    ("driver.ns_per_event", "ns");
    ("trace_io.parse_ns_per_event", "ns");
    ("trace_io.parse_bytes_per_event", "B");
    ("engine.ns_per_event", "ns");
    ("engine.bytes_per_event", "B");
    ("engine.nodes_allocated", "count");
    ("engine.nodes_max_alive", "count");
    ("engine.cycles_found", "count");
    ("warning.raw_per_stream", "count");
    ("warning.kept_ratio", "ratio");
    ("warning.render_us_per_stream", "us");
    ("serve.wait_ms_p50", "ms");
    ("serve.wait_ms_p99", "ms");
    ("serve.check_ms_p50", "ms");
    ("serve.check_ms_p99", "ms");
    ("serve.max_resident", "count");
    ("serve.pool_efficiency", "ratio");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.promoted_bytes_per_event", "B");
    ("setup.generate_s", "s");
    ("setup.reference_s", "s");
    ("setup.warmup_s", "s");
    ("cli.pass_ms_per_stream", "ms");
    ("cli.layer_sum_ms_per_stream", "ms");
    ("cli.residual_ms_per_stream", "ms");
    ("trace.overhead_pct", "%");
  ]

(* --- files ---------------------------------------------------------------------- *)

let rec remove path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> remove (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Sys.mkdir p 0o755
    end
  in
  go path

(* A fresh copy of the corpus: set-up times the first invocations over
   newly written files. *)
let fresh_copy ~from ~into (corpus : Corpus.t) =
  remove into;
  mkdir_p into;
  Array.iter
    (fun (s : Corpus.stream) ->
      let data = Cli.read_file (Filename.concat from s.Corpus.file) in
      Out_channel.with_open_bin (Filename.concat into s.Corpus.file) (fun oc ->
          Out_channel.output_string oc data))
    corpus.Corpus.streams

(* --- one pass of the CLI over the corpus -------------------------------------- *)

type ctx = {
  cli : string;
  workload : workload;
  seed : int;
  work : string;  (** this run's directory, kept when a check fails *)
  jobs : int;
  corpus : Corpus.t;
}

type pass = {
  wall_s : float;  (** summed over the pass's child processes *)
  rss_kb : int;  (** largest peak RSS of a child in the pass *)
  latencies_ms : float array;  (** per-stream turnaround *)
  attempted : int;
  failed : int;
}

let mode_args = function
  | Stream -> [ "--stream" ]
  | Inmem | Serve -> []

let report_failure ctx ~dir (s : Corpus.stream) reason =
  let path = Filename.concat dir s.Corpus.file in
  Printf.printf "FAILED %s %s: %s\n" ctx.workload.name path reason;
  Printf.printf "  replay: %s %s\n" ctx.cli
    (String.concat " "
       ([ "check-trace"; path; "-a"; "velodrome"; "--format"; "json" ]
       @ mode_args ctx.workload.mode));
  Printf.printf
    "  regenerate: bash perfbench/run.sh --workload %s --seed %d --seconds 1 \
     --trace 0 (stream made by %s)\n%!"
    ctx.workload.name ctx.seed (Corpus.origin s.Corpus.spec)

(* The exit status with the first diagnostic line, skipping [--stats]. *)
let exit_reason (c : Cli.child) =
  let first_line =
    List.find_opt
      (fun l -> not (String.starts_with ~prefix:"[serve]" l))
      (String.split_on_char '\n' c.Cli.err)
    |> Option.value ~default:""
  in
  if c.Cli.code < 0 then Printf.sprintf "killed by signal %d" (-c.Cli.code)
  else Printf.sprintf "exit %d (%s)" c.Cli.code first_line

let check_pass ctx dir =
  let scratch = ctx.work in
  let streams = ctx.corpus.Corpus.streams in
  let failed = ref 0 and wall = ref 0. and rss = ref 0 in
  let lat =
    Array.map
      (fun (s : Corpus.stream) ->
        let path = Filename.concat dir s.Corpus.file in
        let c =
          Cli.spawn ~scratch ctx.cli
            ([ "check-trace"; path; "-a"; "velodrome"; "--format"; "json" ]
            @ mode_args ctx.workload.mode)
        in
        wall := !wall +. c.Cli.wall_s;
        rss := max !rss c.Cli.maxrss_kb;
        let expected = Cli.expected_code s.Corpus.reference.Corpus.violation in
        let problem =
          match Cli.reports c.Cli.out with
          | Error e -> Some e
          | Ok [ r ] -> (
            match Cli.mismatch s r with
            | Some m -> Some m
            | None when c.Cli.code <> expected ->
              Some (Printf.sprintf "%s, expected exit %d" (exit_reason c) expected)
            | None -> None)
          | Ok rs ->
            Some (Printf.sprintf "%d results, %s" (List.length rs) (exit_reason c))
        in
        Option.iter
          (fun reason ->
            incr failed;
            report_failure ctx ~dir s reason)
          problem;
        1000. *. c.Cli.wall_s)
      streams
  in
  { wall_s = !wall; rss_kb = !rss; latencies_ms = lat;
    attempted = Array.length streams; failed = !failed }

(* Results and [--stats] timings are matched to streams by file name, so
   a stream without a result fails alone. *)
let serve_pass ctx dir =
  let streams = ctx.corpus.Corpus.streams in
  let c =
    Cli.spawn ~scratch:ctx.work ctx.cli
      [ "serve"; "--jobs"; string_of_int ctx.jobs; "-a"; "velodrome"; "--stats";
        "--format"; "json"; dir ]
  in
  let any_violation =
    Array.exists (fun (s : Corpus.stream) -> s.Corpus.reference.Corpus.violation) streams
  in
  let expected = Cli.expected_code any_violation in
  let reports = Hashtbl.create (Array.length streams) in
  let failed = ref 0 in
  (* Unparsable output is one failure, not one per stream. *)
  let parsed =
    match Cli.reports c.Cli.out with
    | Ok rs ->
      List.iter (fun (r : Cli.report) -> Hashtbl.replace reports (Filename.basename r.Cli.file) r) rs;
      true
    | Error e ->
      incr failed;
      Printf.printf "FAILED %s: serve output: %s\n%!" ctx.workload.name e;
      false
  in
  let timings = Hashtbl.create (Array.length streams) in
  List.iter
    (fun (path, wait, check) -> Hashtbl.replace timings (Filename.basename path) (wait, check))
    (Cli.serve_turnarounds c.Cli.err);
  let check_ms = ref 0. and synthetic_ms = ref 0. and lat = ref [] in
  Array.iter
    (fun (s : Corpus.stream) ->
      let timing = Hashtbl.find_opt timings s.Corpus.file in
      Option.iter
        (fun (wait, check) ->
          lat := (wait +. check) :: !lat;
          check_ms := !check_ms +. check;
          if Corpus.is_synthetic s then synthetic_ms := !synthetic_ms +. check)
        timing;
      let problem =
        match Hashtbl.find_opt reports s.Corpus.file with
        | _ when not parsed -> None
        | None -> Some (Printf.sprintf "no result (serve %s)" (exit_reason c))
        | Some _ when timing = None -> Some "no [serve] timing line"
        | Some r -> Cli.mismatch s r
      in
      Option.iter
        (fun reason ->
          incr failed;
          report_failure ctx ~dir s reason)
        problem)
    streams;
  (* Every stream matched, but the exit status is wrong: one failure. *)
  if !failed = 0 && c.Cli.code <> expected then begin
    incr failed;
    Printf.printf "FAILED %s: serve %s, expected exit %d\n%!" ctx.workload.name
      (exit_reason c) expected
  end;
  Printf.printf "serve pass %.3f s; synthetic streams take %.0f%% of check time\n"
    c.Cli.wall_s (100. *. !synthetic_ms /. !check_ms);
  { wall_s = c.Cli.wall_s; rss_kb = c.Cli.maxrss_kb; latencies_ms = Array.of_list (List.rev !lat);
    attempted = Array.length streams; failed = !failed }

let run_pass ctx dir =
  match ctx.workload.mode with Serve -> serve_pass ctx dir | Stream | Inmem -> check_pass ctx dir

(* --- a run ------------------------------------------------------------------------- *)

type result = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

let setup_rounds = 3
let min_passes = 3

let corpus_dir work = Filename.concat work "corpus"

let describe ctx ~tiny =
  let c = ctx.corpus in
  let text = Array.fold_left (fun a (s : Corpus.stream) -> if s.Corpus.text then a + 1 else a) 0 c.Corpus.streams in
  let violating =
    Array.fold_left
      (fun a (s : Corpus.stream) -> if s.Corpus.reference.Corpus.violation then a + 1 else a)
      0 c.Corpus.streams
  in
  Printf.printf
    "%s seed %d%s: %d streams (%d text, %d binary), %d events, %d with a violation; %s\n%!"
    ctx.workload.name ctx.seed (if tiny then " (tiny)" else "")
    (Array.length c.Corpus.streams) text
    (Array.length c.Corpus.streams - text)
    (Corpus.events c) violating
    (match ctx.workload.mode with
    | Serve -> Printf.sprintf "velodrome serve --jobs %d -a velodrome --stats --format json DIR" ctx.jobs
    | Stream -> "velodrome check-trace FILE --stream -a velodrome --format json"
    | Inmem -> "velodrome check-trace FILE -a velodrome --format json")

let totals passes =
  List.fold_left (fun (a, f) (p : pass) -> (a + p.attempted, f + p.failed)) (0, 0) passes

(* The run's figures. [serve] is one invocation per pass, so its fastest
   pass. [check-trace] is one invocation per stream, so each stream's
   fastest invocation: a pass is one child per stream, and any of them
   can be hit by a burst of host noise. *)
let best ctx passes =
  match ctx.workload.mode with
  | Serve -> Stat.min_by (fun (p : pass) -> p.wall_s) passes
  | Stream | Inmem ->
    let n = Array.length ctx.corpus.Corpus.streams in
    let fastest =
      Array.init n (fun i ->
          List.fold_left (fun a (p : pass) -> Float.min a p.latencies_ms.(i)) infinity passes)
    in
    {
      wall_s = Array.fold_left ( +. ) 0. fastest /. 1000.;
      rss_kb = List.fold_left (fun a (p : pass) -> max a p.rss_kb) 0 passes;
      latencies_ms = fastest;
      attempted = 0;
      failed = 0;
    }

(* End-to-end: [setup_rounds] warm-up passes, each over a fresh copy of
   the corpus (set-up time is their median), then timed passes for
   [seconds]. Every figure comes from the fastest timed pass ([best]): on
   a shared VM the fastest pass is far steadier than the mean or median. *)
let end_to_end_run ctx ~seconds =
  let rounds =
    List.init setup_rounds (fun k ->
        let dir = Filename.concat ctx.work (Printf.sprintf "round-%d" k) in
        fresh_copy ~from:(corpus_dir ctx.work) ~into:dir ctx.corpus;
        let p = run_pass ctx dir in
        if k < setup_rounds - 1 then remove dir;
        p)
  in
  let dir = Filename.concat ctx.work (Printf.sprintf "round-%d" (setup_rounds - 1)) in
  let t0 = Mclock.now_s () in
  let rec timed acc =
    if List.length acc >= min_passes && Mclock.now_s () -. t0 >= seconds then acc
    else timed (run_pass ctx dir :: acc)
  in
  let passes = List.rev (timed []) in
  let fastest = best ctx passes in
  let events = float_of_int (Corpus.events ctx.corpus) in
  Printf.printf "set-up passes (s): %s\n"
    (String.concat " " (List.map (fun (p : pass) -> Printf.sprintf "%.3f" p.wall_s) rounds));
  Printf.printf "timed passes (s): %s\n"
    (String.concat " " (List.map (fun (p : pass) -> Printf.sprintf "%.3f" p.wall_s) passes));
  Printf.printf "stream latency samples: %d (%d beyond p99)\n%!"
    (Array.length fastest.latencies_ms)
    (Stat.beyond 0.99 fastest.latencies_ms);
  let attempted, failed = totals (rounds @ passes) in
  {
    attempted;
    failed;
    metrics =
      [
        ("setup_s", Stat.median (Array.of_list (List.map (fun (p : pass) -> p.wall_s) rounds)));
        ("events_per_s", events /. fastest.wall_s);
        ("peak_rss_mb", float_of_int fastest.rss_kb /. 1024.);
        ("stream_ms_p50", Stat.median fastest.latencies_ms);
        ("stream_ms_p99", Stat.quantile 0.99 fastest.latencies_ms);
      ];
  }

(* Traced: one warm-up pass and three timed CLI passes for the end-to-end
   side of the reconciliation, then repetitions of the in-process layer
   suite for [seconds] (Layers.derive keeps the best of them). *)
let traced_run ctx ~seconds =
  Layers.spans := [];
  let dir = Filename.concat ctx.work "round-0" in
  fresh_copy ~from:(corpus_dir ctx.work) ~into:dir ctx.corpus;
  let warmup = run_pass ctx dir in
  let passes = List.init 3 (fun _ -> run_pass ctx dir) in
  let cli_s = (Stat.min_by (fun (p : pass) -> p.wall_s) passes).wall_s in
  let inputs =
    Array.to_list
      (Array.map
         (fun (s : Corpus.stream) ->
           { Layers.path = Filename.concat dir s.Corpus.file; text = s.Corpus.text;
             events = s.Corpus.reference.Corpus.events })
         ctx.corpus.Corpus.streams)
  in
  (* Binary-only corpora still report text parsing, over the text form of
     a prefix of their first stream. *)
  let t_sample = Mclock.now_s () in
  let sample =
    let path = Filename.concat ctx.work "sample.trace" in
    let first = List.hd inputs in
    let names, trace = Velodrome_trace.Trace_codec.read_file first.Layers.path in
    let n = min (Velodrome_trace.Trace.length trace) 200_000 in
    let prefix = Velodrome_trace.Trace.of_array (Array.sub (Velodrome_trace.Trace.ops trace) 0 n) in
    Velodrome_trace.Trace_io.write_file names prefix path;
    { Layers.path; text = true; events = n }
  in
  let sample_s = Mclock.now_s () -. t_sample in
  let t0 = Mclock.now_s () in
  let rec reps acc =
    if List.length acc >= 2 && Mclock.now_s () -. t0 >= seconds then acc
    else reps (Layers.suite ~jobs:ctx.jobs ~sample ~rep:(List.length acc) inputs :: acc)
  in
  let all = reps [] in
  Printf.printf "layer suite repetitions: %d\n" (List.length all);
  let m, sums = Layers.derive ~sample inputs all in
  let n = float_of_int (Array.length ctx.corpus.Corpus.streams) in
  let layer_sum =
    List.assoc
      (match ctx.workload.mode with Stream -> "stream" | Inmem -> "inmem" | Serve -> "serve")
      sums
  in
  Printf.printf
    "reconciliation: CLI pass %.3f ms/stream, layer sum %.3f ms/stream, residual %.1f%%\n"
    (1000. *. cli_s /. n) (1000. *. layer_sum /. n)
    (100. *. (cli_s -. layer_sum) /. cli_s);
  Layers.write_spans (ctx.work ^ ".spans.jsonl");
  let attempted, failed = totals (warmup :: passes) in
  {
    attempted;
    failed;
    metrics =
      m
      @ [
          ("setup.generate_s", ctx.corpus.Corpus.generate_s +. sample_s);
          ("setup.reference_s", ctx.corpus.Corpus.reference_s);
          ("setup.warmup_s", warmup.wall_s);
          ("cli.pass_ms_per_stream", 1000. *. cli_s /. n);
          ("cli.layer_sum_ms_per_stream", 1000. *. layer_sum /. n);
          ("cli.residual_ms_per_stream", 1000. *. (cli_s -. layer_sum) /. n);
        ];
  }

let run ~cli ~workload ~seed ~seconds ~trace ~tiny ?(corrupt = false) () =
  let work = Filename.concat ".perfbench_work" (Printf.sprintf "%s-s%d" workload.name seed) in
  remove work;
  mkdir_p (corpus_dir work);
  let corpus = Corpus.generate ~dir:(corpus_dir work) (workload.corpus ~tiny seed) in
  (* The self-test's corrupted reference: flip the first stream's verdict. *)
  if corrupt then begin
    let s = corpus.Corpus.streams.(0) in
    let r = s.Corpus.reference in
    corpus.Corpus.streams.(0) <-
      { s with Corpus.reference = { r with Corpus.violation = not r.Corpus.violation } }
  end;
  let ctx =
    { cli; workload; seed; work; corpus;
      jobs = max 1 (Domain.recommended_domain_count () - 1) }
  in
  describe ctx ~tiny;
  let r = if trace then traced_run ctx ~seconds else end_to_end_run ctx ~seconds in
  if r.failed = 0 then remove work
  else Printf.printf "kept %s for replay\n%!" work;
  r

(* --- output ----------------------------------------------------------------------- *)

(* A metric that is missing or not finite (an empty sample, a zero
   divisor) counts as one failed operation and prints as null. *)
let print_result r units =
  let value k = Option.bind (List.assoc_opt k r.metrics) (fun v -> if Float.is_finite v then Some v else None) in
  let failed = ref r.failed in
  List.iter
    (fun (k, unit) ->
      match value k with
      | Some v -> Printf.printf "  %-40s %14.6g %s\n" k v unit
      | None ->
        incr failed;
        Printf.printf "FAILED metric %s: missing or not finite\n" k)
    units;
  let metrics =
    List.map
      (fun (k, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k
          (match value k with Some v -> Printf.sprintf "%.17g" v | None -> "null")
          unit)
      units
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0 && r.attempted > 0)
    r.attempted !failed (String.concat ", " metrics)

(* --- self-test ---------------------------------------------------------------------- *)

(* Metric names and units as BENCHMARK.json declares them. *)
let declared key =
  let field k = function Velodrome_util.Json.Obj kv -> List.assoc_opt k kv | _ -> None in
  match Velodrome_util.Json.of_string (Cli.read_file "BENCHMARK.json") with
  | Error e -> failwith ("BENCHMARK.json: " ^ e)
  | Ok j -> (
    match field key j with
    | Some (Velodrome_util.Json.List l) ->
      List.map
        (fun m ->
          match (field "name" m, field "unit" m) with
          | Some (Velodrome_util.Json.String n), Some (Velodrome_util.Json.String u) -> (n, u)
          | _ -> failwith ("BENCHMARK.json: malformed " ^ key))
        l
    | _ -> failwith ("BENCHMARK.json: no " ^ key))

(* Every workload at tiny size, both modes: every metric present and
   finite, operations attempted and none failed; then a corrupted
   reference verdict must be counted as a failure. *)
let self_test ~cli =
  let problems = ref [] in
  let expect cond msg = if not cond then problems := msg :: !problems in
  expect (declared "end_to_end" = end_to_end) "end_to_end metrics differ from BENCHMARK.json";
  expect (declared "per_layer" = per_layer) "per_layer metrics differ from BENCHMARK.json";
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let r = run ~cli ~workload:w ~seed:1 ~seconds:0.1 ~trace ~tiny:true () in
          let units = if trace then per_layer else end_to_end in
          print_result r units;
          let what = Printf.sprintf "%s --trace %d" w.name (Bool.to_int trace) in
          expect (r.attempted > 0) (what ^ ": no operations");
          expect (r.failed = 0) (what ^ ": failed operations");
          List.iter
            (fun (k, _) ->
              expect
                (match List.assoc_opt k r.metrics with Some v -> Float.is_finite v | None -> false)
                (Printf.sprintf "%s: metric %s missing" what k))
            units)
        [ false; true ];
      let r = run ~cli ~workload:w ~seed:1 ~seconds:0.1 ~trace:false ~tiny:true ~corrupt:true () in
      expect (r.failed > 0) (w.name ^ ": corrupted reference not counted as a failure");
      remove (Filename.concat ".perfbench_work" (Printf.sprintf "%s-s1" w.name)))
    workloads;
  match List.rev !problems with
  | [] ->
    print_endline "self-test: OK";
    0
  | ps ->
    List.iter (Printf.printf "self-test FAILED: %s\n") ps;
    1

(* --- command line ---------------------------------------------------------------- *)

let () =
  let cli = ref "" and workload = ref "" and seed = ref 1 and seconds = ref 10
  and trace = ref 0 and self = ref false in
  Arg.parse
    [
      ("--cli", Arg.Set_string cli, "EXE the velodrome executable to drive");
      ("--workload", Arg.Set_string workload, "NAME check-stream | check-inmem | serve-mixed");
      ("--seed", Arg.Set_int seed, "N corpus seed");
      ("--seconds", Arg.Set_int seconds, "S measuring time per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the traced per-layer run (1)");
      ("--self-test", Arg.Set self, " run every workload at tiny size and check the harness");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --cli EXE (--workload NAME --seed N --seconds S --trace 0|1 | --self-test)";
  if !cli = "" || not (Sys.file_exists !cli) then begin
    prerr_endline "bench: --cli must name the built velodrome executable";
    exit 2
  end;
  Cli.start_launcher ();
  if !self then exit (self_test ~cli:!cli);
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
    Printf.eprintf "bench: unknown workload %S\n" !workload;
    exit 2
  | Some w ->
    let trace = !trace = 1 in
    let r =
      run ~cli:!cli ~workload:w ~seed:!seed ~seconds:(float_of_int !seconds) ~trace ~tiny:false ()
    in
    print_result r (if trace then per_layer else end_to_end)
