(* Shared helpers for the test suites: compact trace construction and
   QCheck arbitraries over well-formed traces. *)

open Velodrome_trace
open Velodrome_trace.Ids
open Velodrome_util

let t0 = Tid.of_int 0
let t1 = Tid.of_int 1
let t2 = Tid.of_int 2
let x = Var.of_int 0
let y = Var.of_int 1
let z = Var.of_int 2
let m = Lock.of_int 0
let n = Lock.of_int 1
let l0 = Label.of_int 0
let l1 = Label.of_int 1
let l2 = Label.of_int 2

let rd t v = Op.Read (t, v)
let wr t v = Op.Write (t, v)
let acq t l = Op.Acquire (t, l)
let rel t l = Op.Release (t, l)
let bg t l = Op.Begin (t, l)
let en t = Op.End t

(* QCheck generator of well-formed traces driven by Gen.run; the QCheck
   shrinker is not useful on whole traces, so we rely on small sizes. *)
let trace_arbitrary cfg =
  QCheck.make
    ~print:(fun tr -> Format.asprintf "%a" Trace.pp tr)
    (QCheck.Gen.map
       (fun seed -> Gen.run (Rng.create seed) cfg)
       (QCheck.Gen.int_bound 1_000_000))

let qsuite name cells =
  (name, List.map (QCheck_alcotest.to_alcotest ~long:false) cells)

(* Bytes allocated while [f] runs (see Stats.allocated_bytes for why not
   Gc.allocated_bytes). *)
let allocated_bytes f =
  let b0 = Stats.allocated_bytes () in
  f ();
  Stats.allocated_bytes () -. b0

(* Run a trace through the optimized engine and return it. *)
let run_engine ?config trace =
  let names = Names.create () in
  let eng = Velodrome_core.Engine.create ?config names in
  List.iter (Velodrome_core.Engine.on_event eng)
    (Event.of_ops (Trace.to_list trace));
  Velodrome_core.Engine.finish eng;
  eng

let run_basic ?config trace =
  let names = Names.create () in
  let eng = Velodrome_core.Basic.create ?config names in
  List.iter (Velodrome_core.Basic.on_event eng)
    (Event.of_ops (Trace.to_list trace));
  Velodrome_core.Basic.finish eng;
  eng

let run_aero trace =
  let names = Names.create () in
  let eng = Velodrome_core.Aero.create names in
  List.iter (Velodrome_core.Aero.on_event eng)
    (Event.of_ops (Trace.to_list trace));
  Velodrome_core.Aero.finish eng;
  eng

(* --- cross-back-end differential plumbing ----------------------------------

   One projection and one runner shared by every suite that replays the
   same events through several back-ends and diffs the warnings
   (test_backends, test_stream, regressions). *)

open Velodrome_analysis

(* Everything that identifies a warning, its cycle compared as data
   (node slots, threads, labels and edge operations) rather than as the
   rendered summary. *)
let project_warning (w : Warning.t) =
  ( w.Warning.analysis,
    w.Warning.kind,
    Option.map Tid.to_int w.Warning.tid,
    Option.map Label.to_int w.Warning.label,
    Option.map Var.to_int w.Warning.var,
    (w.Warning.text, w.Warning.cycle),
    w.Warning.index,
    w.Warning.blamed )

(* Feed a list of ops through one packaged back-end. *)
let feed (module B : Backend.S) ?(names = Names.create ()) ops =
  let state = B.create names in
  List.iter (B.on_event state) (Event.of_ops ops);
  B.finish state;
  B.warnings state

(* Replay a whole trace through one packaged back-end; projected
   warnings in report order. *)
let trace_warnings mk tr =
  let names = Names.create () in
  List.map project_warning (Backend.run_trace [ Backend.make (mk ()) names ] tr)

(* Run one trace across N packaged back-ends independently and pair each
   registry name with its projected warnings — the combinator behind
   every "diff the back-ends" test. *)
let diff_backends backends tr =
  List.map (fun (name, mk) -> (name, trace_warnings mk tr)) backends

(* --- the sound-and-complete engine trio -------------------------------------

   Aero and Basic must agree warning-for-warning (same label, thread,
   index and message; only the analysis name differs); the optimized
   engine's blame pass attributes labels differently by design, so it
   participates through the shared verdict and first-violation index. *)

let strip_analysis (_, kind, tid, label, var, message, index, blamed) =
  (kind, tid, label, var, message, index, blamed)

type projected =
  Warning.kind
  * int option
  * int option
  * int option
  * (string * Error_graph.t option)
  * int
  * bool

type trio = {
  verdict : bool;
  first_index : int option;
  aero_warnings : projected list;
  basic_warnings : projected list;
}

(* Replay one trace through Aero, Engine and Basic; [Some] is full
   agreement, [Error] a human-readable disagreement. *)
let engine_trio trace =
  let a = run_aero trace
  and e = run_engine trace
  and b = run_basic trace in
  let va = Velodrome_core.Aero.has_error a
  and ve = Velodrome_core.Engine.has_error e
  and vb = Velodrome_core.Basic.has_error b in
  let fa = Velodrome_core.Aero.first_error_index a
  and fe = Velodrome_core.Engine.first_error_index e
  and fb = Velodrome_core.Basic.first_error_index b in
  let ws eng warnings =
    List.sort compare
      (List.map (fun w -> strip_analysis (project_warning w)) (warnings eng))
  in
  let wa = ws a Velodrome_core.Aero.warnings
  and wb = ws b Velodrome_core.Basic.warnings in
  let pp_idx = function None -> "-" | Some i -> string_of_int i in
  if va <> ve || va <> vb then
    Error
      (Printf.sprintf "verdicts disagree: aero=%b engine=%b basic=%b" va ve vb)
  else if fa <> fe || fa <> fb then
    Error
      (Printf.sprintf
         "first violation index disagrees: aero=%s engine=%s basic=%s"
         (pp_idx fa) (pp_idx fe) (pp_idx fb))
  else if wa <> wb then
    Error
      (Printf.sprintf "aero/basic warning sets differ (%d vs %d warnings)"
         (List.length wa) (List.length wb))
  else
    Ok { verdict = va; first_index = fa; aero_warnings = wa; basic_warnings = wb }
