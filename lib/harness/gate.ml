open Velodrome_analysis
module Statics = Velodrome_statics.Statics
module Values = Velodrome_statics.Values
module Cfg = Velodrome_statics.Cfg
module Run = Velodrome_sim.Run
module Interp = Velodrome_sim.Interp
module Names = Velodrome_trace.Names

type kind =
  | Proved_blamed of string
  | Not_may_violate of string
  | Uncovered_race of { analysis : string; var : string }
  | Engines_disagree of string
  | Value_unsound of string

type failure = { schedule : string; kind : kind }
type t = {
  schedules : int;
  dynamic_warnings : int;
  pauses : int;
  failures : failure list;
}

let ok g = g.failures = []

let schedules seeds =
  let config policy adversarial =
    { Run.default_config with policy; adversarial }
  in
  ("round-robin", config Run.Round_robin false)
  :: List.concat_map
       (fun s ->
         [
           (Printf.sprintf "random(seed %d)" s, config (Run.Random s) false);
           ( Printf.sprintf "adversarial(seed %d)" s,
             config (Run.Random s) true );
         ])
       seeds

let may_violate st l =
  List.exists
    (fun b ->
      Velodrome_trace.Ids.Label.equal b.Statics.label l
      &&
      match b.Statics.verdict with
      | Statics.May_violate _ -> true
      | _ -> false)
    (Statics.blocks st)

(* The value obligations, checked through the interpreter's observation
   hook. Only the first violation of a schedule is kept: one witness is
   enough to fail, and the hook stays cheap on the hot path. *)
let value_observer vals violation (o : Interp.obs) =
  if !violation = None then begin
    let site = { Cfg.thread = o.Interp.o_thread; path = o.Interp.o_path } in
    if Values.dead_site vals site then
      violation :=
        Some
          (Printf.sprintf "event from statically-dead site %s"
             (Cfg.site_to_string site))
    else
      match (o.Interp.o_value, Values.fact_at vals site) with
      | Some x, Some f when not (Values.mem x f.Values.itv) ->
        violation :=
          Some
            (Printf.sprintf "observed value %d at %s outside static interval %s"
               x (Cfg.site_to_string site)
               (Values.itv_to_string f.Values.itv))
      | _ -> ()
  end

let rank = function
  | Proved_blamed _ -> 0
  | Not_may_violate _ -> 1
  | Uncovered_race _ -> 2
  | Engines_disagree _ -> 3
  | Value_unsound _ -> 4

let run program st ~seeds =
  let names = program.Velodrome_sim.Ast.names in
  let races = Statics.races st in
  let vals = Statics.values st in
  let warnings = ref 0 in
  let pauses = ref 0 in
  let found = ref [] in
  let fail schedule kind = found := { schedule; kind } :: !found in
  let schedules = schedules seeds in
  List.iter
    (fun (schedule, config) ->
      (* The Atomizer is attached only as the adversarial scheduler's pause
         oracle (none of the others ever asks for a pause); its warnings
         carry no obligation. *)
      let backends =
        [
          Backend.make (Velodrome_atomizer.Atomizer.backend ()) names;
          Backend.make (Velodrome_core.Engine.backend ()) names;
          Backend.make (Velodrome_eraser.Eraser.backend ()) names;
          Backend.make (Velodrome_hbrace.Hbrace.backend ()) names;
        ]
      in
      let violation = ref None in
      let config =
        {
          config with
          Run.record_trace = true;
          observe = Option.map (fun v -> value_observer v violation) vals;
        }
      in
      let res = Run.run ~config program backends in
      Option.iter (fun msg -> fail schedule (Value_unsound msg)) !violation;
      (match Trio.check names (Option.get res.Run.trace) with
      | Error msg -> fail schedule (Engines_disagree msg)
      | Ok _ -> ());
      let checked =
        List.filter
          (fun (w : Warning.t) ->
            w.Warning.analysis <> Velodrome_atomizer.Atomizer.name)
          res.Run.warnings
      in
      warnings := !warnings + List.length checked;
      pauses := !pauses + res.Run.pauses;
      List.iter
        (fun (w : Warning.t) ->
          List.iter
            (fun l ->
              if Statics.proved st l then
                fail schedule (Proved_blamed (Names.label_name names l))
              else if not (may_violate st l) then
                fail schedule (Not_may_violate (Names.label_name names l)))
            w.Warning.refuted;
          match (w.Warning.kind, w.Warning.var) with
          | Warning.Race, Some x
            when not (Velodrome_statics.Races.racy_var races x) ->
            fail schedule
              (Uncovered_race
                 { analysis = w.Warning.analysis; var = Names.var_name names x })
          | _ -> ())
        checked)
    schedules;
  let found = List.rev !found in
  let of_rank r = List.filter (fun f -> rank f.kind = r) found in
  {
    schedules = List.length schedules;
    dynamic_warnings = !warnings;
    pauses = !pauses;
    failures =
      of_rank 0
      @ List.sort_uniq compare (of_rank 1)
      @ List.sort_uniq compare (of_rank 2)
      @ of_rank 3 @ of_rank 4;
  }

let pp ~values ppf g =
  if ok g then
    Format.fprintf ppf
      "soundness gate: OK (%d schedules, %d dynamic warnings, no proved block \
       blamed, every blamed block may-violate, every dynamic race statically \
       covered, aero = velodrome = basic on every recorded trace%s)@."
      g.schedules g.dynamic_warnings
      (if values then
         ", no dead site executed, every observed value in its static interval"
       else "")
  else
    List.iter
      (fun { schedule; kind } ->
        Format.fprintf ppf "soundness gate: FAILED: ";
        (match kind with
        | Proved_blamed label ->
          Format.fprintf ppf "proved block %s blamed under %s" label schedule
        | Not_may_violate label ->
          Format.fprintf ppf
            "blamed block %s is not statically may-violate under %s" label
            schedule
        | Uncovered_race { analysis; var } ->
          Format.fprintf ppf
            "%s warned about %s under %s but no static race pair covers it"
            analysis var schedule
        | Engines_disagree msg ->
          Format.fprintf ppf "engines disagree under %s: %s" schedule msg
        | Value_unsound msg ->
          Format.fprintf ppf "value analysis unsound under %s: %s" schedule msg);
        Format.fprintf ppf "@.")
      g.failures

let to_json g =
  let open Velodrome_util.Json in
  let payload = function
    | Proved_blamed s | Not_may_violate s -> [ ("label", String s) ]
    | Uncovered_race { analysis; var } ->
      [ ("var", String var); ("analysis", String analysis) ]
    | Engines_disagree s | Value_unsound s -> [ ("message", String s) ]
  in
  let field name r =
    ( name,
      List
        (List.filter_map
           (fun f ->
             if rank f.kind = r then
               Some (Obj (payload f.kind @ [ ("schedule", String f.schedule) ]))
             else None)
           g.failures) )
  in
  Obj
    [
      ("schedules", Int g.schedules);
      ("dynamic_warnings", Int g.dynamic_warnings);
      field "mismatches" 0;
      field "uncovered_blames" 1;
      field "uncovered_races" 2;
      field "engine_disagreements" 3;
      field "value_violations" 4;
      ("ok", Bool (ok g));
    ]

let replay_lines ~gen_seed ~families ~seeds g =
  match g.failures with
  | [] -> []
  | { schedule; _ } :: _ ->
    [
      Printf.sprintf
        "gate: generated program FAILED: progen seed %d, family %s, schedule %s"
        gen_seed
        (String.concat "+" families)
        schedule;
      Printf.sprintf
        "gate: replay: velodrome analyze --generated 1 --gen-seed %d --seeds \
         %s --gate"
        gen_seed
        (String.concat "," (List.map string_of_int seeds));
    ]
