(* The serve domain pool and its headline guarantee: checking N streams
   on 8 domains produces exactly the results of checking them one by
   one, in the same order — over the full workload suite and a few
   hundred generated traces — plus the operational properties: failed
   streams keep their partial result, resident streams respect the
   backpressure bound, and no file descriptors leak. *)

open Velodrome_trace
open Velodrome_analysis
module Serve = Velodrome_serve.Serve
module Driver = Velodrome_stream.Driver
module Workload = Velodrome_workloads.Workload

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let backends names =
  [ Backend.make (Velodrome_core.Engine.backend ()) names ]

(* --- corpus construction ---------------------------------------------------- *)

let with_dir name f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "velodrome-test-%s-%d" name (Unix.getpid ()))
  in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

let record_workload dir (w : Workload.t) =
  let program = w.Workload.build Workload.Small in
  let res =
    Velodrome_harness.Common.run_once ~seed:7 ~record_trace:true program
      (fun _ -> [])
  in
  let path = Filename.concat dir (w.Workload.name ^ ".velb") in
  Trace_codec.write_file program.Velodrome_sim.Ast.names
    (Option.get res.Velodrome_sim.Run.trace)
    path;
  path

let gen_stream dir k =
  let cfg =
    {
      Gen.default with
      threads = 2 + (k mod 5);
      vars = 3 + (k mod 13);
      locks = 1 + (k mod 3);
      labels = 6;
      steps = 300;
      max_depth = 3;
    }
  in
  let tr = Gen.run (Velodrome_util.Rng.create (500 + k)) cfg in
  let path = Filename.concat dir (Printf.sprintf "gen-%03d.velb" k) in
  Trace_codec.write_file (Names.create ()) tr path;
  path

(* --- reference: one stream at a time through the plain driver --------------- *)

let render format names w =
  match format with
  | `Human -> Format.asprintf "%a" (Warning.pp names) w
  | `Json -> Velodrome_util.Json.to_string (Warning.to_json names w)

let reference ?(format = `Human) path =
  Velodrome_stream.Source.with_file path (fun src ->
      let names = src.Velodrome_stream.Source.names in
      let events, warnings =
        Driver.run (backends names) src
      in
      ( events,
        List.map (render format names) (Warning.dedup_by_label warnings) ))

let project (r : Serve.result) =
  match r.Serve.outcome with
  | Driver.Checked { events; warnings = Driver.Lines lines } ->
    (r.Serve.path, events, lines)
  | Driver.Checked { events; warnings = Driver.Objects objects } ->
    (r.Serve.path, events, List.map Velodrome_util.Json.to_string objects)
  | Driver.Failed { events; _ } ->
    Alcotest.failf "%s: unexpected Failed after %d events" r.Serve.path events

let serve_projected ~jobs ?queue_capacity ?format paths =
  let acc = ref [] in
  let stats =
    Serve.run ~jobs ?queue_capacity ?format ~backends
      ~on_result:(fun r -> acc := project r :: !acc)
      paths
  in
  (stats, List.rev !acc)

let check_differential ~jobs ?format paths =
  let expected = List.map (fun p -> (p, reference ?format p)) paths in
  let stats, got = serve_projected ~jobs ?format paths in
  check int "one result per stream" (List.length paths) (List.length got);
  List.iter2
    (fun (path, (events, warnings)) (gpath, gevents, gwarnings) ->
      check Alcotest.string "submission order preserved" path gpath;
      check int (path ^ " events") events gevents;
      check Alcotest.(list string) (path ^ " warnings") warnings gwarnings)
    expected got;
  check int "no failures" 0 stats.Serve.failed;
  check bool "resident bound respected" true
    (stats.Serve.max_resident
    <= stats.Serve.queue_capacity + stats.Serve.jobs);
  stats

(* --- tests ------------------------------------------------------------------ *)

(* All recorded workload traces, 8 domains vs the sequential driver, in
   each output format. *)
let test_workloads_differential () =
  with_dir "serve-wl" (fun dir ->
      let paths = List.map (record_workload dir) Workload.all in
      check int "all workloads recorded"
        (List.length Workload.all)
        (List.length paths);
      ignore (check_differential ~jobs:8 paths);
      ignore (check_differential ~jobs:8 ~format:`Json paths))

(* 200 generated streams; 1, 3 and 8 domains must agree with the
   sequential driver and with each other, byte for byte. *)
let test_generated_differential () =
  with_dir "serve-gen" (fun dir ->
      let paths = List.init 200 (gen_stream dir) in
      ignore (check_differential ~jobs:8 paths);
      let _, one = serve_projected ~jobs:1 paths in
      let _, three = serve_projected ~jobs:3 ~queue_capacity:2 paths in
      let _, eight = serve_projected ~jobs:8 paths in
      check bool "jobs=1 = jobs=8" true (one = eight);
      check bool "jobs=3 (tiny queue) = jobs=8" true (three = eight))

(* A truncated stream fails with its partial prefix intact while the
   healthy streams around it are unaffected. *)
let test_partial_failure () =
  with_dir "serve-trunc" (fun dir ->
      let good = gen_stream dir 0 in
      let full_events, _ = reference good in
      let bad = Filename.concat dir "bad.velb" in
      let contents = In_channel.with_open_bin good In_channel.input_all in
      Out_channel.with_open_bin bad (fun oc ->
          Out_channel.output_string oc
            (String.sub contents 0 (String.length contents * 3 / 4)));
      let acc = ref [] in
      let stats =
        Serve.run ~jobs:4 ~backends
          ~on_result:(fun r -> acc := r :: !acc)
          [ good; bad; good ]
      in
      check int "one failure" 1 stats.Serve.failed;
      match List.rev !acc with
      | [ g1; b; g2 ] ->
        (match (g1.Serve.outcome, g2.Serve.outcome) with
        | Driver.Checked { events = e1; _ }, Driver.Checked { events = e2; _ } ->
          check int "good streams unaffected" full_events e1;
          check int "good streams unaffected (after)" full_events e2
        | _ -> Alcotest.fail "good streams must check");
        (match b.Serve.outcome with
        | Driver.Failed { events; message; _ } ->
          check bool "partial prefix replayed" true
            (events > 0 && events < full_events);
          check bool "corrupt diagnostic" true
            (String.length message > 0)
        | Driver.Checked _ -> Alcotest.fail "truncated stream must fail")
      | rs -> Alcotest.failf "expected 3 results, got %d" (List.length rs))

let test_expand_targets () =
  with_dir "serve-expand" (fun dir ->
      let p2 = gen_stream dir 2 in
      let p1 = gen_stream dir 1 in
      (match Serve.expand_targets [ dir ] with
      | Ok paths ->
        check Alcotest.(list string) "sorted directory scan" [ p1; p2 ] paths
      | Error e -> Alcotest.fail e);
      (match Serve.expand_targets [ p1; dir ] with
      | Ok paths ->
        check Alcotest.(list string) "files kept verbatim" [ p1; p1; p2 ] paths
      | Error e -> Alcotest.fail e);
      check bool "missing target is an error" true
        (Result.is_error (Serve.expand_targets [ dir ^ "/nope" ])))

(* Serving 200 streams must return the process to its fd baseline:
   every Source.with_file in every worker domain closes its channel,
   even on the failure paths. *)
let count_fds () =
  match Sys.readdir "/proc/self/fd" with
  | entries -> Some (Array.length entries)
  | exception Sys_error _ -> None

let test_fd_leak () =
  with_dir "serve-fds" (fun dir ->
      let paths = List.init 200 (gen_stream dir) in
      (* Include a truncated stream so the error path is covered too. *)
      let bad = Filename.concat dir "bad.velb" in
      let contents =
        In_channel.with_open_bin (List.hd paths) In_channel.input_all
      in
      Out_channel.with_open_bin bad (fun oc ->
          Out_channel.output_string oc
            (String.sub contents 0 (String.length contents / 2)));
      match count_fds () with
      | None -> () (* no /proc: nothing to measure on this platform *)
      | Some before ->
        let stats =
          Serve.run ~jobs:8 ~backends ~on_result:ignore (paths @ [ bad ])
        in
        check int "one failure" 1 stats.Serve.failed;
        let after = Option.get (count_fds ()) in
        check int "fds back to baseline" before after)

let suite =
  ( "serve",
    [
      Alcotest.test_case "workload differential (8 domains)" `Quick
        test_workloads_differential;
      Alcotest.test_case "generated differential (1/3/8 domains)" `Quick
        test_generated_differential;
      Alcotest.test_case "partial failure isolation" `Quick
        test_partial_failure;
      Alcotest.test_case "expand targets" `Quick test_expand_targets;
      Alcotest.test_case "fd baseline after 200 streams" `Quick test_fd_leak;
    ] )
