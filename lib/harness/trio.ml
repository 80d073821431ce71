open Velodrome_analysis
module E = Velodrome_core.Engine
module B = Velodrome_core.Basic
module A = Velodrome_core.Aero

let project (w : Warning.t) =
  Warning.(w.kind, w.tid, w.label, w.var, (w.text, w.cycle), w.index, w.blamed)

let check names trace =
  let e = E.create names and b = B.create names and a = A.create names in
  List.iter
    (fun ev ->
      E.on_event e ev;
      B.on_event b ev;
      A.on_event a ev)
    (Velodrome_trace.Event.of_ops (Velodrome_trace.Trace.to_list trace));
  E.finish e;
  B.finish b;
  A.finish a;
  let ve = E.has_error e and vb = B.has_error b and va = A.has_error a in
  let fe = E.first_error_index e
  and fb = B.first_error_index b
  and fa = A.first_error_index a in
  let sorted ws = List.sort compare (List.map project ws) in
  let wb = sorted (B.warnings b) and wa = sorted (A.warnings a) in
  let index = function None -> "-" | Some i -> string_of_int i in
  if ve <> vb || vb <> va then
    Error
      (Printf.sprintf "verdicts disagree: velodrome=%b basic=%b aero=%b" ve vb
         va)
  else if fe <> fb || fb <> fa then
    Error
      (Printf.sprintf
         "first violation index disagrees: velodrome=%s basic=%s aero=%s"
         (index fe) (index fb) (index fa))
  else if wa <> wb then
    Error
      (Printf.sprintf "aero/basic warning sets differ (%d vs %d warnings)"
         (List.length wa) (List.length wb))
  else Ok ve
