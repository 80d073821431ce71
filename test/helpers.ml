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

(* Bytes allocated while [f] runs (see Stats.allocated_bytes for why not
   Gc.allocated_bytes). *)
let allocated_bytes f =
  let b0 = Stats.allocated_bytes () in
  f ();
  Stats.allocated_bytes () -. b0

(* Run a trace through the optimized engine and return it. *)
let run_engine trace =
  let names = Names.create () in
  let eng = Velodrome_core.Engine.create names in
  List.iter (Velodrome_core.Engine.on_event eng)
    (Event.of_ops (Trace.to_list trace));
  Velodrome_core.Engine.finish eng;
  eng

let run_basic trace =
  let names = Names.create () in
  let eng = Velodrome_core.Basic.create names in
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

(* Deferred publish: a writer updates b then a with no lock; a reader
   snapshots both in one atomic. Round-robin runs the writer (thread 0)
   first each round, so the reader's first read always lands after the
   first write — clean — yet forcing read b ≺ write b ≺ write a ≺ read a
   violates. Without [writes] the writer only yields: no race pair, and no
   waypoint on thread 0 is ever reached. *)
let scan_program ?(writes = true) () =
  let module B = Velodrome_sim.Builder in
  let b = B.create () in
  let va = B.var b "a" in
  let vb = B.var b "b" in
  B.thread b
    (if writes then [ B.write vb (B.i 1); B.write va (B.i 1) ] else [ B.yield ]);
  B.thread b
    (let r1 = B.fresh_reg b in
     let r2 = B.fresh_reg b in
     [ B.atomic (B.label b "scan") [ B.read r1 vb; B.read r2 va ] ]);
  B.program b
