(* The benchmark's inputs: trace files generated in-process from the
   workload seed, each with a reference verdict computed by the [aero]
   engine (the three-way test harness keeps it in agreement with the
   production engine on verdict and first violating event). *)

open Velodrome_trace
module Workload = Velodrome_workloads.Workload
module Run = Velodrome_sim.Run
module Rng = Velodrome_util.Rng

type reference = { events : int; violation : bool; first : int option }

(* What one stream is generated from. *)
type spec =
  | Recorded of { workload : string; size : Workload.size; sched : int }
  | Synthetic of { shape : string; threads : int; vars : int; locks : int;
                   steps : int; gen : int }

type stream = {
  file : string;  (** basename inside the corpus directory *)
  spec : spec;
  text : bool;  (** written in the text format instead of [.velb] *)
  reference : reference;
}

type t = {
  streams : stream array;
  generate_s : float;  (** simulation or synthesis plus writing *)
  reference_s : float;  (** the [aero] reference replays *)
}

let size_name = function
  | Workload.Small -> "small"
  | Workload.Medium -> "medium"
  | Workload.Large -> "large"

(* How a stream was made, for failure reports. *)
let origin = function
  | Recorded { workload; size; sched } ->
    Printf.sprintf "velodrome record %s FILE --size %s --seed %d" workload
      (size_name size) sched
  | Synthetic { shape; threads; vars; locks; steps; gen } ->
    Printf.sprintf
      "Gen.run seed %d (%s: %d threads, %d vars, %d locks, %d steps)" gen shape
      threads vars locks steps

(* Exactly what [velodrome record] does. *)
let record workload size sched =
  let w = Option.get (Workload.find workload) in
  let program = w.Workload.build size in
  let config =
    { Run.default_config with policy = Run.Random sched; record_trace = true }
  in
  let res = Run.run ~config program [] in
  (program.Velodrome_sim.Ast.names, Option.get res.Run.trace)

(* The dense and wide shapes of the serve pool's synthetic streams. Every
   id the generator can use gets a dictionary name, so the file is valid
   under a decoder that bounds ids by the dictionary. *)
let synthesize ~threads ~vars ~locks ~steps gen =
  let names = Names.create () in
  for i = 0 to vars - 1 do ignore (Names.var names (Printf.sprintf "v%d" i)) done;
  for i = 0 to locks - 1 do ignore (Names.lock names (Printf.sprintf "m%d" i)) done;
  let labels = 8 in
  for i = 0 to labels - 1 do
    ignore (Names.label names (Printf.sprintf "Synth.block%d" i))
  done;
  let cfg =
    { Gen.default with threads; vars; locks; labels; steps; max_depth = 3 }
  in
  (names, Gen.run (Rng.create gen) cfg)

let reference names trace =
  let a = Velodrome_core.Aero.create names in
  Trace.iteri
    (fun index op -> Velodrome_core.Aero.on_event a (Event.make ~index op))
    trace;
  Velodrome_core.Aero.finish a;
  {
    events = Trace.length trace;
    violation = Velodrome_core.Aero.has_error a;
    first = Velodrome_core.Aero.first_error_index a;
  }

let now = Velodrome_util.Mclock.now_s

(* [specs] pairs each stream with whether it goes out as text. Streams are
   written to [dir] as [sNNNN-<name>.velb|.trace], so the directory order
   the serve command uses is the list order. *)
let generate ~dir specs =
  let gen_s = ref 0. and ref_s = ref 0. in
  let streams =
    List.mapi
      (fun i (spec, text) ->
        let t0 = now () in
        let names, trace =
          match spec with
          | Recorded { workload; size; sched } -> record workload size sched
          | Synthetic { threads; vars; locks; steps; gen; _ } ->
            synthesize ~threads ~vars ~locks ~steps gen
        in
        let name =
          match spec with
          | Recorded { workload; _ } -> workload
          | Synthetic { shape; _ } -> shape
        in
        let file =
          Printf.sprintf "s%04d-%s.%s" i name (if text then "trace" else "velb")
        in
        let path = Filename.concat dir file in
        if text then Trace_io.write_file names trace path
        else Trace_codec.write_file names trace path;
        let t1 = now () in
        let reference = reference names trace in
        gen_s := !gen_s +. (t1 -. t0);
        ref_s := !ref_s +. (now () -. t1);
        { file; spec; text; reference })
      specs
  in
  { streams = Array.of_list streams; generate_s = !gen_s; reference_s = !ref_s }

let is_synthetic s = match s.spec with Synthetic _ -> true | Recorded _ -> false

let events t =
  Array.fold_left (fun acc s -> acc + s.reference.events) 0 t.streams

(* --- the three corpora ------------------------------------------------------- *)

(* Long clean-path traces: [per_kind] schedules each of jbb and jigsaw at
   Large size (about 0.8-1.0M events per file). *)
let long_traces ~tiny seed =
  let rng = Rng.create seed in
  let size = if tiny then Workload.Small else Workload.Large in
  let per_kind = if tiny then 1 else 3 in
  List.concat
    (List.init per_kind (fun _ ->
         List.map
           (fun workload ->
             (Recorded { workload; size; sched = Rng.int rng 1_000_000 }, false))
           [ "jbb"; "jigsaw" ]))

(* Many short streams: every registry workload at Medium size over
   [rounds] schedules, about one in ten written as text, plus a few
   violation-dense synthetic streams. The recorded streams go out in a
   seeded shuffle; the synthetic ones sit at evenly spaced positions, so
   the queue waits they cause do not depend on where the shuffle put
   them. *)
let serve_mix ~tiny seed =
  let rng = Rng.create seed in
  let rounds = if tiny then 1 else 60 in
  let size = if tiny then Workload.Small else Workload.Medium in
  let recorded =
    Array.of_list
      (List.concat
         (List.init rounds (fun _ ->
              List.map
                (fun (w : Workload.t) ->
                  Recorded
                    { workload = w.Workload.name; size; sched = Rng.int rng 1_000_000 })
                Workload.all)))
  in
  Rng.shuffle rng recorded;
  let synthetic =
    let per_shape = if tiny then 1 else 18 in
    let steps = if tiny then 500 else 3_000 in
    Array.of_list
      (List.concat
         (List.init per_shape (fun _ ->
              [
                Synthetic
                  { shape = "dense"; threads = 8; vars = 2; locks = 1; steps;
                    gen = Rng.int rng 1_000_000 };
                Synthetic
                  { shape = "wide"; threads = 16; vars = 64; locks = 8; steps;
                    gen = Rng.int rng 1_000_000 };
              ])))
  in
  let nr = Array.length recorded and ns = Array.length synthetic in
  let total = nr + ns in
  (* Synthetic stream k goes at position (2k + 1) * total / (2 ns). *)
  let slot k = ((2 * k) + 1) * total / (2 * ns) in
  let next_r = ref 0 and next_s = ref 0 in
  List.init total (fun i ->
      if !next_s < ns && i = slot !next_s then begin
        incr next_s;
        (synthetic.(!next_s - 1), false)
      end
      else begin
        incr next_r;
        (recorded.(!next_r - 1), !next_r mod 10 = 3)
      end)
