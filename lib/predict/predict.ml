open Velodrome_trace
open Velodrome_trace.Ids
open Velodrome_statics
open Velodrome_sim
module Engine = Velodrome_core.Engine
module Basic = Velodrome_core.Basic
module Aero = Velodrome_core.Aero
module Warning = Velodrome_analysis.Warning
module Json = Velodrome_util.Json

type prediction = {
  label : Label.t;
  name : string;
  witness : Txgraph.witness;
  plan : Plan.t;
  trace : Trace.t;
  first_error_index : int;
  resolved : bool;
}

type attempt_result =
  | Infeasible of int * Constrain.reason
  | Uncertified

type attempt = { plan : Plan.t; result : attempt_result }

type block_outcome =
  | Predicted of prediction
  | Unpredicted of attempt list
  | Not_attempted

type block_report = { block : Statics.block; outcome : block_outcome }

type t = {
  statics : Statics.t;
  observed_events : int;
  observed_blamed : Label.t list;
  reports : block_report list;
}

let observed_blamed t = t.observed_blamed

let predictions t =
  List.filter_map
    (fun r -> match r.outcome with Predicted p -> Some p | _ -> None)
    t.reports

let unpredicted_count t =
  List.length
    (List.filter
       (fun r -> match r.outcome with Unpredicted _ -> true | _ -> false)
       t.reports)

(* --- certification -------------------------------------------------------- *)

let certify names label trace =
  let eng = Engine.create names in
  let bas = Basic.create names in
  let aer = Aero.create names in
  Trace.iteri
    (fun i op ->
      let ev = Event.make ~index:i op in
      Engine.on_event eng ev;
      Basic.on_event bas ev;
      Aero.on_event aer ev)
    trace;
  Engine.finish eng;
  Basic.finish bas;
  Aero.finish aer;
  let hits ws =
    List.exists
      (fun (w : Warning.t) ->
        (match w.Warning.label with
        | Some l -> Label.equal l label
        | None -> false)
        || List.exists (Label.equal label) w.Warning.refuted)
      ws
  in
  if
    Engine.has_error eng && Basic.has_error bas && Aero.has_error aer
    && hits (Engine.warnings eng)
    && hits (Basic.warnings bas)
    && hits (Aero.warnings aer)
  then
    match Engine.first_error_index eng with
    | Some i -> Some i
    | None -> Some 0
  else None

(* The step bound of every constrained replay. *)
let max_steps = 200_000

let replay_and_certify program label plan =
  match Constrain.replay ~max_steps program plan with
  | Constrain.Infeasible { at; reason } ->
    Error
      (Printf.sprintf "infeasible at waypoint %d: %s" at
         (Constrain.reason_to_string reason))
  | Constrain.Scheduled { trace; _ } -> (
    match certify program.Ast.names label trace with
    | Some idx -> Ok idx
    | None -> Error "replayed but the engine trio did not flame the block")

let recheck program t =
  List.filter_map
    (fun p ->
      match replay_and_certify program p.label p.plan.Plan.waypoints with
      | Ok _ -> None
      | Error msg -> Some (p.name, msg))
    (predictions t)

(* Labels the engine blamed on a trace: warning heads plus refuted lists. *)
let blamed_labels names trace =
  let eng = Engine.create names in
  Trace.iteri
    (fun i op -> Engine.on_event eng (Event.make ~index:i op))
    trace;
  Engine.finish eng;
  List.sort_uniq Label.compare
    (List.concat_map
       (fun (w : Warning.t) ->
         (match w.Warning.label with Some l -> [ l ] | None -> [])
         @ w.Warning.refuted)
       (Engine.warnings eng))

(* --- the pass ------------------------------------------------------------- *)

(* Witness cycles tried per may-violate block. *)
let max_witnesses = 8

let run program st =
  let names = Statics.names st in
  let tx = Statics.txgraph st in
  let observed = Constrain.observe ~max_steps program in
  let obs_trace = Trace.of_array (Array.map fst observed) in
  let observed_blamed = blamed_labels names obs_trace in
  let has_candidate (w : Constrain.waypoint) =
    Array.exists
      (fun (op, path) ->
        Tid.to_int (Op.tid op) = w.Constrain.wthread
        && path = w.Constrain.wpath)
      observed
  in
  let witness_resolved (w : Txgraph.witness) =
    List.for_all
      (fun (p : Plan.t) -> List.for_all has_candidate p.Plan.waypoints)
      (Plan.of_witness w)
  in
  let attempt_block (block : Statics.block) =
    match block.Statics.verdict with
    | Statics.May_violate _ ->
      let wits =
        List.concat_map (Txgraph.witnesses_for tx) block.Statics.sites
      in
      (* Dedup cycles shared by several sites of the block. *)
      let seen = Hashtbl.create 8 in
      let wits =
        List.filter
          (fun (w : Txgraph.witness) ->
            let key = (w.Txgraph.arrival.Cfg.id, w.Txgraph.departure.Cfg.id) in
            if Hashtbl.mem seen key then false
            else begin
              Hashtbl.add seen key ();
              true
            end)
          wits
      in
      let wits = List.map (fun w -> (w, witness_resolved w)) wits in
      (* Witnesses whose every site produced a dynamic event candidate in
         the observation replay first; the sort is stable, so arrival
         order breaks ties. *)
      let wits =
        List.stable_sort
          (fun (_, r1) (_, r2) -> Bool.compare r2 r1)
          wits
      in
      let wits = List.filteri (fun i _ -> i < max_witnesses) wits in
      if wits = [] then { block; outcome = Not_attempted }
      else begin
        let attempts = ref [] in
        let found = ref None in
        List.iter
          (fun (w, resolved) ->
            List.iter
              (fun (plan : Plan.t) ->
                if Option.is_none !found then begin
                  match
                    Constrain.replay ~max_steps program plan.Plan.waypoints
                  with
                  | Constrain.Infeasible { at; reason } ->
                    attempts :=
                      { plan; result = Infeasible (at, reason) } :: !attempts
                  | Constrain.Scheduled { trace; _ } -> (
                    match certify names block.Statics.label trace with
                    | Some idx ->
                      found :=
                        Some
                          {
                            label = block.Statics.label;
                            name = block.Statics.name;
                            witness = w;
                            plan;
                            trace;
                            first_error_index = idx;
                            resolved;
                          }
                    | None ->
                      attempts :=
                        { plan; result = Uncertified } :: !attempts)
                end)
              (Plan.of_witness w))
          wits;
        match !found with
        | Some p -> { block; outcome = Predicted p }
        | None -> { block; outcome = Unpredicted (List.rev !attempts) }
      end
    | Statics.Proved_atomic _ | Statics.Unknown _ ->
      { block; outcome = Not_attempted }
  in
  {
    statics = st;
    observed_events = Array.length observed;
    observed_blamed;
    reports = List.map attempt_block (Statics.blocks st);
  }

(* --- the upgraded lattice ------------------------------------------------- *)

type verdict = Static of Statics.verdict | Predicted_violation of prediction

let verdicts t =
  List.map
    (fun r ->
      match r.outcome with
      | Predicted p -> (r.block, Predicted_violation p)
      | _ -> (r.block, Static r.block.Statics.verdict))
    t.reports

let verdict_string = function
  | Static v -> Statics.verdict_string v
  | Predicted_violation _ -> "predicted-violation"

(* --- rendering ------------------------------------------------------------ *)

let attempt_string (a : attempt) =
  Printf.sprintf "%s: %s"
    (Plan.kind_string a.plan.Plan.kind)
    (match a.result with
    | Infeasible (at, reason) ->
      Printf.sprintf "infeasible at waypoint %d (%s)" at
        (Constrain.reason_to_string reason)
    | Uncertified -> "uncertified")

(* The one-command reproduction for a prediction; [spec] is how the CLI
   names the program (a target, or "--generated 1 --gen-seed N"). *)
let replay_line spec (p : prediction) =
  Printf.sprintf "velodrome analyze %s --block %s --schedule \"%s\"" spec
    p.name
    (Plan.to_string p.plan)

let to_json ~replay_with t =
  let names = Statics.names t.statics in
  let tx = Statics.txgraph t.statics in
  let preds = predictions t in
  let unpredicted =
    List.filter_map
      (fun r ->
        match r.outcome with
        | Unpredicted attempts -> Some (r.block, attempts)
        | _ -> None)
      t.reports
  in
  let may_violate =
    List.length
      (List.filter
         (fun (r : block_report) ->
           match r.block.Statics.verdict with
           | Statics.May_violate _ -> true
           | _ -> false)
         t.reports)
  in
  let open Json in
  Obj
    [
      ( "observation",
        Obj
          [
            ("events", Int t.observed_events);
            ( "blamed",
              List
                (List.map
                   (fun l -> String (Names.label_name names l))
                   t.observed_blamed) );
          ] );
      ( "predictions",
        List
          (List.map
             (fun p ->
               Obj
                 ([
                    ("block", String (Names.label_name names p.label));
                    ("plan", String (Plan.kind_string p.plan.Plan.kind));
                    ("schedule", String (Plan.to_string p.plan));
                    ("resolved", Bool p.resolved);
                    ("first_error_index", Int p.first_error_index);
                    ("trace_events", Int (Trace.length p.trace));
                  ]
                 @ [
                     ("replay", String (replay_line replay_with p));
                     ("witness", Txgraph.witness_json tx p.witness);
                   ]))
             preds) );
      ( "verdicts",
        List
          (List.map
             (fun ((b : Statics.block), v) ->
               Obj
                 [
                   ("block", String b.Statics.name);
                   ("verdict", String (verdict_string v));
                 ])
             (verdicts t)) );
      ( "unpredicted",
        List
          (List.map
             (fun ((b : Statics.block), attempts) ->
               Obj
                 [
                   ("block", String b.Statics.name);
                   ( "attempts",
                     List
                       (List.map
                          (fun a -> String (attempt_string a))
                          attempts) );
                 ])
             unpredicted) );
      ( "summary",
        Obj
          [
            ("blocks", Int (List.length t.reports));
            ("may_violate", Int may_violate);
            ("predicted", Int (List.length preds));
            ("certified", Int (List.length preds));
            ("uncertified", Int 0);
            ("unpredicted", Int (List.length unpredicted));
            ("observed_blamed", Int (List.length t.observed_blamed));
          ] );
    ]

let pp_human ~replay_with ppf t =
  let names = Statics.names t.statics in
  let tx = Statics.txgraph t.statics in
  let preds = predictions t in
  Format.fprintf ppf
    "prediction: %d certified prediction%s, %d may-violate block%s \
     unpredicted (observation: %d events, %d block%s blamed)@."
    (List.length preds)
    (if List.length preds = 1 then "" else "s")
    (unpredicted_count t)
    (if unpredicted_count t = 1 then "" else "s")
    t.observed_events
    (List.length t.observed_blamed)
    (if List.length t.observed_blamed = 1 then "" else "s");
  List.iter
    (fun r ->
      match r.outcome with
      | Predicted p ->
        Format.fprintf ppf
          "  %s: predicted violation (%s plan, certified at event %d)@."
          p.name
          (Plan.kind_string p.plan.Plan.kind)
          p.first_error_index;
        Format.fprintf ppf "    schedule: %s@." (Plan.to_string p.plan);
        Format.fprintf ppf "    replay: %s@." (replay_line replay_with p);
        Format.fprintf ppf "    cycle: %s@." (Txgraph.explain tx p.witness)
      | Unpredicted attempts ->
        Format.fprintf ppf "  %s: unpredicted (%s)@." r.block.Statics.name
          (String.concat "; " (List.map attempt_string attempts))
      | Not_attempted -> ())
    t.reports;
  List.iter
    (fun l ->
      Format.fprintf ppf "  observed: %s already blamed by round-robin@."
        (Names.label_name names l))
    t.observed_blamed
