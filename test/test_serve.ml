(* The serve domain pool and its headline guarantee: checking N streams
   on 8 domains produces exactly the results of checking them one by
   one, in the same order — over the full workload suite and a few
   hundred generated traces — plus the operational properties: failed
   streams keep their partial result, resident streams respect the
   backpressure bound, and no file descriptors leak. The pool monitor
   itself ([Serve.Make] over Stdlib's primitives) is also driven
   directly with stub streams: order, exactly-once checks, the bounds,
   recovery and shutdown. *)

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

let serve_projected ~jobs ?format paths =
  let acc = ref [] in
  let stats =
    Serve.run ~jobs ?format ~backends
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
      let _, three = serve_projected ~jobs:3 paths in
      let _, eight = serve_projected ~jobs:8 paths in
      check bool "jobs=1 = jobs=8" true (one = eight);
      check bool "jobs=3 = jobs=8" true (three = eight))

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

(* A check that raises fails its own stream only: the worker survives
   and serves the streams after it. Exceptions from [on_event] already
   end a stream inside the driver; one from [finish] escapes the whole
   check. The exploding back-end raises there when the stream had a
   third thread, which only the middle stream has (generated stream 1
   runs three threads, stream 0 two). *)
module Exploding = struct
  type t = { mutable third : bool }

  let name = "exploding"
  let create (_ : Names.t) = { third = false }

  let on_event t (ev : Event.t) =
    if Ids.Tid.to_int (Op.tid ev.Event.op) = 2 then t.third <- true

  let pause_hint _ _ = false
  let finish t = if t.third then failwith "backend exploded"
  let warnings _ = []
end

let test_raising_check () =
  with_dir "serve-raise" (fun dir ->
      let good = gen_stream dir 0 and bad = gen_stream dir 1 in
      let full_events, _ = reference good in
      let exploding names =
        Backend.make (module Exploding) names :: backends names
      in
      List.iter
        (fun jobs ->
          let acc = ref [] in
          let stats =
            Serve.run ~jobs ~backends:exploding
              ~on_result:(fun r -> acc := r :: !acc)
              [ good; bad; good ]
          in
          check int "one failure" 1 stats.Serve.failed;
          match List.rev !acc with
          | [ g1; b; g2 ] ->
            List.iter
              (fun (g : Serve.result) ->
                match g.Serve.outcome with
                | Driver.Checked { events; _ } ->
                  check int "good streams unaffected" full_events events
                | Driver.Failed { message; _ } ->
                  Alcotest.failf "good stream failed: %s" message)
              [ g1; g2 ];
            (match b.Serve.outcome with
            | Driver.Failed { events; message; _ } ->
              check int "no events credited" 0 events;
              check Alcotest.string "error_line message"
                (Driver.error_line bad (Failure "backend exploded"))
                message
            | Driver.Checked _ -> Alcotest.fail "raising stream must fail")
          | rs -> Alcotest.failf "expected 3 results, got %d" (List.length rs))
        [ 1; 2 ])

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

(* --- the pool monitor on Stdlib's primitives -------------------------------- *)

(* The production instantiation of [Serve.Make], driven with stub
   streams whose check is a function of the index: the same protocol
   the model-checked scenarios explore at tiny bounds, here on real
   domains and at sizes the explorer cannot reach. *)
module Pool = Serve.Make (struct
  module Mutex = Mutex
  module Condition = Condition

  module Plain = struct
    type 'a t = 'a ref

    let make = ref
    let get = ( ! )
    let set = ( := )
  end
end)

(* Serve [streams] stub streams on [jobs] worker domains. [check i]
   runs in a worker; every call is counted, so a stream checked twice
   or never is seen. [admit] asserts admission order and the resident
   bound at each admission. Returns the emitted [(i, r)] pairs in emit
   order, the per-stream check counts and the high-water mark. *)
let serve_stubs ?(capacity = 1) ?(recover = fun _ e -> raise e) ?emit ~jobs
    ~streams check =
  let pool = Pool.create ~streams ~capacity ~jobs in
  let checks = Array.init streams (fun _ -> Atomic.make 0) in
  let check i =
    Atomic.incr checks.(i);
    check i
  in
  (* [admit] runs under the monitor's lock, so it records a violation
     instead of raising; it is reported once the workers are joined. *)
  let admitted = ref 0 and emitted = ref [] and n_emitted = ref 0 in
  let violation = ref None in
  let admit i =
    if i <> !admitted && !violation = None then
      violation := Some (Printf.sprintf "stream %d admitted out of order" i);
    incr admitted;
    if !admitted - !n_emitted > max 1 capacity + jobs && !violation = None then
      violation :=
        Some (Printf.sprintf "stream %d admitted past the resident bound" i)
  in
  let emit i r =
    emitted := (i, r) :: !emitted;
    incr n_emitted;
    Option.iter (fun f -> f i r) emit
  in
  let domains =
    Array.init jobs (fun _ ->
        Domain.spawn (fun () -> Pool.worker pool ~check ~recover))
  in
  let max_resident =
    Fun.protect
      ~finally:(fun () ->
        Pool.shut pool;
        Array.iter Domain.join domains)
      (fun () -> Pool.merge pool ~admit ~emit)
  in
  Option.iter Alcotest.fail !violation;
  (List.rev !emitted, Array.map Atomic.get checks, max_resident)

let check_exactly_once checks =
  Array.iteri
    (fun i c -> if c <> 1 then Alcotest.failf "stream %d checked %d times" i c)
    checks

let test_pool_in_order () =
  List.iter
    (fun (jobs, capacity) ->
      let streams = 50 in
      let got, checks, max_resident =
        serve_stubs ~jobs ~capacity ~streams (fun i -> i * i)
      in
      check
        Alcotest.(list (pair int int))
        (Printf.sprintf "jobs %d, capacity %d: emitted in index order" jobs
           capacity)
        (List.init streams (fun i -> (i, i * i)))
        got;
      check_exactly_once checks;
      check bool "max_resident within capacity + jobs" true
        (max_resident >= 1 && max_resident <= capacity + jobs))
    [ (1, 1); (1, 4); (2, 1); (3, 6) ]

(* A capacity below 1 is raised to 1: with one worker at most two
   streams are ever resident, and the pool still finishes. *)
let test_pool_capacity_floor () =
  let got, checks, max_resident =
    serve_stubs ~jobs:1 ~capacity:0 ~streams:10 Fun.id
  in
  check int "all streams emitted" 10 (List.length got);
  check_exactly_once checks;
  check bool "resident <= 1 + jobs" true (max_resident <= 2)

let test_pool_no_streams () =
  let got, _, max_resident =
    serve_stubs ~jobs:2 ~streams:0 (fun _ -> Alcotest.fail "nothing to check")
  in
  check int "nothing emitted" 0 (List.length got);
  check int "nothing resident" 0 max_resident

(* [shut] before any admission: idle workers waiting for work return. *)
let test_pool_shut_idle () =
  let pool = Pool.create ~streams:5 ~capacity:1 ~jobs:2 in
  let ran = Atomic.make 0 in
  let worker () =
    Pool.worker pool
      ~check:(fun _ -> Atomic.incr ran)
      ~recover:(fun _ e -> raise e)
  in
  let domains = Array.init 2 (fun _ -> Domain.spawn worker) in
  Pool.shut pool;
  Array.iter Domain.join domains;
  check int "no stream checked" 0 (Atomic.get ran)

(* Every other check raises: its [recover] result takes its place, in
   order, and the workers keep serving the streams after it. *)
let test_pool_recover () =
  let streams = 21 in
  let got, checks, _ =
    serve_stubs ~jobs:2 ~streams
      ~recover:(fun i -> function Exit -> -i | e -> raise e)
      (fun i -> if i mod 2 = 1 then raise Exit else i)
  in
  check
    Alcotest.(list (pair int int))
    "recovered results in place"
    (List.init streams (fun i -> (i, if i mod 2 = 1 then -i else i)))
    got;
  check_exactly_once checks

(* An exception from [emit] leaves [merge]; shutting the pool then
   still returns every worker. *)
let test_pool_emit_raises () =
  match
    serve_stubs ~jobs:2 ~streams:30 Fun.id ~emit:(fun i _ ->
        if i = 4 then raise Exit)
  with
  | _ -> Alcotest.fail "emit's exception must leave merge"
  | exception Exit -> ()

(* Seeded per-stream work lengths on three workers and a capacity of 2,
   so completion order differs from index order all the time. *)
let test_pool_stress () =
  let streams = 2_000 and jobs = 3 and capacity = 2 in
  let rng = Velodrome_util.Rng.create 2026 in
  let spins = Array.init streams (fun _ -> Velodrome_util.Rng.int rng 2_000) in
  let work i =
    let acc = ref i in
    for k = 1 to spins.(i) do
      acc := (!acc * 31) + k
    done;
    ignore (Sys.opaque_identity !acc);
    i
  in
  let got, checks, max_resident = serve_stubs ~jobs ~capacity ~streams work in
  check bool "emitted in index order" true
    (List.for_all2 (fun (i, r) k -> i = k && r = k) got
       (List.init streams Fun.id));
  check_exactly_once checks;
  check bool "max_resident within capacity + jobs" true
    (max_resident <= capacity + jobs)

(* [Serve.run]'s end of the contract: an [on_result] exception shuts
   the pool and propagates, and the stats report the clamped job count
   with a queue capacity of [2 * jobs]. *)
let test_run_on_result_raises () =
  with_dir "serve-stop" (fun dir ->
      let paths = List.init 6 (gen_stream dir) in
      let seen = ref 0 in
      (match
         Serve.run ~jobs:2 ~backends
           ~on_result:(fun _ ->
             incr seen;
             if !seen = 2 then raise Exit)
           paths
       with
      | _ -> Alcotest.fail "on_result's exception must propagate"
      | exception Exit -> ());
      check int "no result after the raising one" 2 !seen;
      let stats = Serve.run ~jobs:8 ~backends ~on_result:ignore paths in
      check int "jobs clamped to the streams" 6 stats.Serve.jobs;
      check int "queue capacity is 2 * jobs" 12 stats.Serve.queue_capacity;
      let stats = Serve.run ~jobs:4 ~backends ~on_result:ignore [] in
      check int "no streams" 0 stats.Serve.streams;
      check int "one job for no streams" 1 stats.Serve.jobs;
      check int "nothing resident" 0 stats.Serve.max_resident)

(* [Serve.run ~jobs:3] checks three streams at once, on any core count:
   each stream's [backends] call waits until all three have arrived, which
   only happens when three worker domains hold a stream each. A pool with
   fewer workers reaches the deadline instead, and the stream that waited
   in vain fails. *)
let test_run_concurrency () =
  with_dir "serve-concurrency" (fun dir ->
      let paths = List.init 3 (gen_stream dir) in
      let arrived = Atomic.make 0 and peak = Atomic.make 0 in
      let deadline =
        Int64.add (Velodrome_util.Mclock.now_ns ()) 10_000_000_000L
      in
      let barrier names =
        Atomic.incr arrived;
        while
          Atomic.get arrived < 3 && Velodrome_util.Mclock.now_ns () < deadline
        do
          Domain.cpu_relax ()
        done;
        (* The first stream to leave sees the fewest arrivals. *)
        let n = Atomic.get arrived in
        ignore (Atomic.compare_and_set peak 0 n : bool);
        if n < 3 then
          failwith
            (Printf.sprintf "%d of 3 streams in flight at the deadline" n);
        backends names
      in
      let stats = Serve.run ~jobs:3 ~backends:barrier ~on_result:ignore paths in
      check int "three worker domains" 3 stats.Serve.jobs;
      check int "three streams in flight at once" 3 (Atomic.get peak);
      check int "no stream failed" 0 stats.Serve.failed)

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
      Alcotest.test_case "raising check fails one stream" `Quick
        test_raising_check;
      Alcotest.test_case "pool: in-order emission, exactly once" `Quick
        test_pool_in_order;
      Alcotest.test_case "pool: capacity below 1 is 1" `Quick
        test_pool_capacity_floor;
      Alcotest.test_case "pool: no streams" `Quick test_pool_no_streams;
      Alcotest.test_case "pool: shut releases idle workers" `Quick
        test_pool_shut_idle;
      Alcotest.test_case "pool: recover replaces a raising check" `Quick
        test_pool_recover;
      Alcotest.test_case "pool: emit raising, then shut" `Quick
        test_pool_emit_raises;
      Alcotest.test_case "pool: multi-domain stress" `Quick test_pool_stress;
      Alcotest.test_case "run: on_result raising, stats bounds" `Quick
        test_run_on_result_raises;
      Alcotest.test_case "run: jobs 3 checks three streams at once" `Quick
        test_run_concurrency;
    ] )
