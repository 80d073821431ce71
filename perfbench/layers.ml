(* The traced run: the layers the CLI composes, timed in-process through
   their public functions.

   Per-event spans would cost more than the work (about 130 ns/event), so
   each layer gets its own pass over the same corpus and a span per
   stream. Spans are kept in memory and written out at the end; bytes and
   GC counts come from deltas around the same calls. *)

open Velodrome_trace
open Velodrome_analysis
module Mclock = Velodrome_util.Mclock
module Engine = Velodrome_core.Engine
module Source = Velodrome_stream.Source
module Driver = Velodrome_stream.Driver
module Serve = Velodrome_serve.Serve

(* --- spans --------------------------------------------------------------------- *)

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 for a pass *)
  stream : int;  (** index into the corpus; -1 for a pass *)
  start_ns : int64;
  end_ns : int64;
}

let spans = ref []
let next_id = ref 0

let fresh_id () =
  incr next_id;
  !next_id

let record ?(id = fresh_id ()) ~name ~parent ~stream start_ns end_ns =
  spans := { id; name; parent; stream; start_ns; end_ns } :: !spans;
  id

let write_spans path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"parent\":%d,\"stream\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
            s.id s.name s.parent s.stream s.start_ns s.end_ns)
        (List.rev !spans))

(* Stage runs and their summed seconds since the last [reset_tally]: what
   the tracing overhead is measured against. *)
let stage_calls = ref 0
let staged_s = ref 0.

let reset_tally () =
  stage_calls := 0;
  staged_s := 0.

(* A layer pass: for each item, [prepare stream item] does untimed set-up
   (such as pre-decoding) and returns the timed stages, run in order.
   Each stage run is a span whose parent is the stream's span, whose
   parent is the pass. Returns per stage name its summed seconds and
   allocated bytes. *)
let pass name items prepare =
  let totals = Hashtbl.create 4 in
  let pass_id = fresh_id () in
  let pass_start = Mclock.now_ns () in
  List.iter
    (fun (stream, item) ->
      let stages = prepare stream item in
      let stream_start = Mclock.now_ns () in
      let children =
        List.map
          (fun (stage, f) ->
            let b0 = Gc.allocated_bytes () in
            let t0 = Mclock.now_ns () in
            f ();
            let t1 = Mclock.now_ns () in
            let bytes = Gc.allocated_bytes () -. b0 in
            let s, b = Option.value ~default:(0., 0.) (Hashtbl.find_opt totals stage) in
            Hashtbl.replace totals stage (s +. Mclock.span_s t0 t1, b +. bytes);
            incr stage_calls;
            staged_s := !staged_s +. Mclock.span_s t0 t1;
            (stage, t0, t1))
          stages
      in
      let sid =
        record ~name:(name ^ "/stream") ~parent:pass_id ~stream stream_start
          (Mclock.now_ns ())
      in
      List.iter
        (fun (stage, t0, t1) -> ignore (record ~name:stage ~parent:sid ~stream t0 t1))
        children)
    items;
  ignore (record ~id:pass_id ~name ~parent:0 ~stream:(-1) pass_start (Mclock.now_ns ()));
  fun stage -> Option.value ~default:(0., 0.) (Hashtbl.find_opt totals stage)

(* What [pass] itself costs per stage run, in seconds: [pass] over
   [n] no-op stages, one per stream, against the same calls made plainly.
   It includes the stream's span, so it bounds the cost from above. The
   calibration's spans and tally are dropped. *)
let stage_cost () =
  let n = 50_000 in
  let items = List.init n (fun k -> (k, ())) in
  let prepare _ () = [ ("noop", ignore) ] in
  let saved = (!spans, !stage_calls, !staged_s) in
  let t0 = Mclock.now_ns () in
  let (_ : string -> float * float) = pass "calibrate" items prepare in
  let t1 = Mclock.now_ns () in
  List.iter (fun (k, x) -> List.iter (fun (_, f) -> f ()) (prepare k x)) items;
  let t2 = Mclock.now_ns () in
  let s, c, t = saved in
  spans := s;
  stage_calls := c;
  staged_s := t;
  (Mclock.span_s t0 t1 -. Mclock.span_s t1 t2) /. float_of_int n

(* --- the layer passes ------------------------------------------------------------ *)

type input = {
  path : string;
  text : bool;
  events : int;
}

let decode_all path =
  Source.with_file path (fun src ->
      let v = Velodrome_util.Vec.create () in
      src.Source.iter (Velodrome_util.Vec.push v);
      (src.Source.names, Velodrome_util.Vec.to_array v))

let engine_backend names = Backend.make (Engine.backend ()) names

let render names raw =
  List.iter
    (fun w ->
      ignore (Format.asprintf "%a" (Warning.pp names) w);
      ignore (Velodrome_util.Json.to_string (Warning.to_json names w)))
    (Warning.dedup_by_label raw)

(* The streaming path as [check-trace --stream] composes it. *)
let check_stream path =
  Source.with_file path (fun src ->
      let names = src.Source.names in
      let _, warnings = Driver.run [ engine_backend names ] src in
      render names warnings)

type counts = {
  mutable nodes_allocated : int;
  mutable nodes_max_alive : int;
  mutable cycles_found : int;
  mutable raw : int;
  mutable kept : int;
}

let sum_events l = List.fold_left (fun a (_, i) -> a + i.events) 0 l

(* Splits the corpus for the passes: binary streams, text streams (or the
   rendered [sample] when the corpus has none). *)
let partition ~sample inputs =
  let all = List.mapi (fun i x -> (i, x)) inputs in
  let binaries = List.filter (fun (_, i) -> not i.text) all in
  let texts =
    match List.filter (fun (_, i) -> i.text) all with [] -> [ (-1, sample) ] | l -> l
  in
  (all, binaries, texts)

(* One repetition of every layer pass. Returns raw measurements: seconds
   ("*.s"), allocated bytes ("*.b") and counts; [derive] turns the best
   of several repetitions into the reported metrics. [rep] alternates the
   order within the paired measurements. *)
let suite ~jobs ~sample ~rep inputs =
  reset_tally ();
  let all, binaries, texts = partition ~sample inputs in
  let open_reader path f =
    In_channel.with_open_bin path (fun ic -> f (Trace_codec.reader_of_channel ic))
  in
  let parse_text path =
    In_channel.with_open_bin path (fun ic ->
        Trace_io.fold_channel (Names.create ()) ic ~init:() ~f:(fun () _ -> ()))
  in
  (* Decoding (or parsing) alone and the driver over it with the [empty]
     back-end, back to back per stream in alternating order: the driver's
     own cost is their difference, which host noise would swamp if the
     two ran in separate passes. *)
  let front =
    pass "decode" all (fun k i ->
        let driver =
          ( "driver",
            fun () ->
              Source.with_file i.path (fun src ->
                  ignore (Driver.run [ Backend.make (module Empty) src.Source.names ] src)) )
        in
        let alone =
          if i.text then ("parse", fun () -> parse_text i.path)
          else ("decode", fun () -> open_reader i.path (fun r -> Trace_codec.iter_events r ignore))
        in
        let pair = if (k + rep) mod 2 = 0 then [ alone; driver ] else [ driver; alone ] in
        if i.text then pair else ("header", fun () -> open_reader i.path ignore) :: pair)
  in
  let parse =
    if List.exists (fun i -> i.text) inputs then front
    else pass "trace_io.parse" texts (fun _ i -> [ ("parse", fun () -> parse_text i.path) ])
  in
  let c = { nodes_allocated = 0; nodes_max_alive = 0; cycles_found = 0; raw = 0; kept = 0 } in
  let collected = ref [] in
  let engine =
    pass "engine" all (fun _ i ->
        let names, events = decode_all i.path in
        [
          ( "engine",
            fun () ->
              let e = Engine.create names in
              Array.iter (Engine.on_event e) events;
              Engine.finish e;
              let raw = Engine.warnings e in
              c.nodes_allocated <- c.nodes_allocated + Engine.nodes_allocated e;
              c.nodes_max_alive <- max c.nodes_max_alive (Engine.nodes_max_alive e);
              c.cycles_found <- c.cycles_found + Engine.cycles_found e;
              c.raw <- c.raw + List.length raw;
              c.kept <- c.kept + List.length (Warning.dedup_by_label raw);
              collected := (names, raw) :: !collected );
        ])
  in
  let render_pass =
    pass "warning" (List.mapi (fun i x -> (i, x)) (List.rev !collected)) (fun _ (names, raw) ->
        [ ("render", fun () -> render names raw) ])
  in
  collected := [];
  (* From a compacted heap, so the GC counts repeat run to run. *)
  Gc.compact ();
  let g0 = Gc.quick_stat () in
  let inmem =
    pass "inmem" binaries (fun _ i ->
        let loaded = ref None in
        let get () = Option.get !loaded in
        [
          ("read_file", fun () -> loaded := Some (Trace_codec.read_file i.path));
          ("check", fun () -> ignore (Trace.check (snd (get ()))));
          ( "run_trace",
            fun () ->
              let names, trace = get () in
              ignore (Backend.run_trace [ engine_backend names ] trace) );
        ])
  in
  let g1 = Gc.quick_stat () in
  (* The composed streaming path, plainly, stream after stream: the
     sequential side of the pool's efficiency. *)
  let seq_start = Mclock.now_ns () in
  List.iter (fun (_, i) -> check_stream i.path) all;
  let seq_end = Mclock.now_ns () in
  ignore (record ~name:"stream" ~parent:0 ~stream:(-1) seq_start seq_end);
  let paths = List.map (fun i -> i.path) inputs in
  let waits = ref [] and checks = ref [] in
  let serve_start = Mclock.now_ns () in
  let s =
    Serve.run ~jobs ~backends:(fun names -> [ engine_backend names ])
      ~on_result:(fun r ->
        waits := (Int64.to_float r.Serve.wait_ns /. 1e6) :: !waits;
        checks := (Int64.to_float r.Serve.check_ns /. 1e6) :: !checks)
      paths
  in
  ignore (record ~name:"serve" ~parent:0 ~stream:(-1) serve_start (Mclock.now_ns ()));
  let waits = Array.of_list !waits and checks = Array.of_list !checks in
  let timed name f stage = [ (name ^ ".s", fst (f stage)); (name ^ ".b", snd (f stage)) ] in
  List.concat
    [
      timed "header" front "header";
      timed "decode" front "decode";
      timed "parse" parse "parse";
      [ ("driver_self.s", fst (front "driver") -. fst (front "decode") -. fst (front "parse")) ];
      timed "engine" engine "engine";
      timed "render" render_pass "render";
      timed "read_file" inmem "read_file";
      timed "check" inmem "check";
      timed "run_trace" inmem "run_trace";
      [
        ("sequential.s", Mclock.span_s seq_start seq_end);
        ("overhead", float_of_int !stage_calls *. stage_cost () /. !staged_s);
        ("serve.s", Int64.to_float s.Serve.elapsed_ns /. 1e9);
        ("nodes_allocated", float_of_int c.nodes_allocated);
        ("nodes_max_alive", float_of_int c.nodes_max_alive);
        ("cycles_found", float_of_int c.cycles_found);
        ("raw", float_of_int c.raw);
        ("kept", float_of_int c.kept);
        ("wait_p50", Stat.median waits);
        ("wait_p99", Stat.quantile 0.99 waits);
        ("check_p50", Stat.median checks);
        ("check_p99", Stat.quantile 0.99 checks);
        ("max_resident", float_of_int s.Serve.max_resident);
        ("minor", float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections));
        ("major", float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
        ("promoted", 8. *. (g1.Gc.promoted_words -. g0.Gc.promoted_words));
      ];
    ]

(* The reported metrics from several repetitions of [suite]: each raw
   measurement is taken at its minimum (the least disturbed repetition;
   counts are equal in every repetition), and the driver's paired
   difference and the tracing overhead at their median. Also returns the layer sums, in seconds, of the three
   CLI paths. *)
let derive ~sample inputs reps =
  let v k = List.fold_left (fun acc r -> Float.min acc (List.assoc k r)) infinity reps in
  let med k = Stat.median (Array.of_list (List.map (List.assoc k) reps)) in
  let _, binaries, texts = partition ~sample inputs in
  let bin_events = sum_events binaries and text_events = sum_events texts in
  let events = List.fold_left (fun a i -> a + i.events) 0 inputs in
  let n = List.length inputs and nb = List.length binaries in
  let per x e = if e = 0 then 0. else x /. float_of_int e in
  let ns x e = 1e9 *. per x e in
  let metrics =
    [
      ("trace_codec.decode_ns_per_event", ns (v "decode.s" -. v "header.s") bin_events);
      ("trace_codec.decode_bytes_per_event", per (v "decode.b" -. v "header.b") bin_events);
      ("trace_codec.header_us_per_stream", 1e6 *. per (v "header.s") nb);
      ("trace_codec.read_file_ns_per_event", ns (v "read_file.s") bin_events);
      ("trace_codec.read_file_bytes_per_event", per (v "read_file.b") bin_events);
      ("trace.check_ns_per_event", ns (v "check.s") bin_events);
      ("backend.run_trace_ns_per_event", ns (v "run_trace.s") bin_events);
      ("driver.ns_per_event", ns (med "driver_self.s") events);
      ("trace_io.parse_ns_per_event", ns (v "parse.s") text_events);
      ("trace_io.parse_bytes_per_event", per (v "parse.b") text_events);
      ("engine.ns_per_event", ns (v "engine.s") events);
      ("engine.bytes_per_event", per (v "engine.b") events);
      ("engine.nodes_allocated", v "nodes_allocated");
      ("engine.nodes_max_alive", v "nodes_max_alive");
      ("engine.cycles_found", v "cycles_found");
      ("warning.raw_per_stream", per (v "raw") n);
      ("warning.kept_ratio", if v "raw" = 0. then 1. else v "kept" /. v "raw");
      ("warning.render_us_per_stream", 1e6 *. per (v "render.s") n);
      ("serve.wait_ms_p50", v "wait_p50");
      ("serve.wait_ms_p99", v "wait_p99");
      ("serve.check_ms_p50", v "check_p50");
      ("serve.check_ms_p99", v "check_p99");
      ("serve.max_resident", v "max_resident");
      ("serve.pool_efficiency", v "sequential.s" /. v "serve.s");
      ("gc.minor_collections", v "minor");
      ("gc.major_collections", v "major");
      ("gc.promoted_bytes_per_event", per (v "promoted") bin_events);
      ("trace.overhead_pct", 100. *. med "overhead");
    ]
  in
  let sums =
    [
      ("stream",
       v "decode.s" +. (if List.exists (fun i -> i.text) inputs then v "parse.s" else 0.)
       +. med "driver_self.s" +. v "engine.s" +. v "render.s");
      ("inmem", v "read_file.s" +. v "check.s" +. v "run_trace.s" +. v "render.s");
      ("serve", v "serve.s");
    ]
  in
  (metrics, sums)
