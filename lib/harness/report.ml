module Statics = Velodrome_statics.Statics
module Predict = Velodrome_predict.Predict
module Json = Velodrome_util.Json

type target = {
  name : string;
  program : Velodrome_sim.Ast.program;
  pos : Velodrome_trace.Ids.Label.t -> (int * int) option;
  generated : (int * string list) option;
}

let progen s =
  let program, info =
    Velodrome_sim.Progen.generate_info (Velodrome_util.Rng.create s)
  in
  {
    name = Printf.sprintf "generated(progen seed %d)" s;
    program;
    pos = (fun _ -> None);
    generated = Some (s, info.Velodrome_sim.Progen.families);
  }

(* The analyze arguments that rebuild a target's program; replay lines
   start with them. *)
let spec t =
  match t.generated with
  | Some (s, _) -> Printf.sprintf "--generated 1 --gen-seed %d" s
  | None -> t.name

type options = {
  values : bool;
  show_values : bool;
  races : bool;
  graph : bool;
  gate : int list option;
  predict : bool;
}

type entry = {
  target : target;
  st : Statics.t;
  gate_result : Gate.t option;
  prediction : (Predict.t * (string * string) list) option;
      (** the pass, and the predictions that failed to re-certify *)
}

type t = { options : options; entries : entry list }

let run options targets =
  let entry target =
    let st = Statics.analyze ~values:options.values target.program in
    let gate_result =
      Option.map (fun seeds -> Gate.run target.program st ~seeds) options.gate
    in
    let prediction =
      if not options.predict then None
      else
        let p = Predict.run target.program st in
        let recheck =
          if options.gate = None then fun _ _ -> [] else Predict.recheck
        in
        Some (p, recheck target.program p)
    in
    { target; st; gate_result; prediction }
  in
  { options; entries = List.map entry targets }

let replay_lines t =
  List.concat_map
    (fun e ->
      match (e.target.generated, e.gate_result, t.options.gate) with
      | Some (gen_seed, families), Some g, Some seeds ->
        Gate.replay_lines ~gen_seed ~families ~seeds g
      | _ -> [])
    t.entries

let exit_code t =
  let failed e =
    (match e.gate_result with Some g -> not (Gate.ok g) | None -> false)
    || match e.prediction with Some (_, fails) -> fails <> [] | None -> false
  in
  let unproved e = Statics.proved_count e.st < Statics.block_count e.st in
  if List.exists failed t.entries then 1
  else if t.options.gate = None && List.exists unproved t.entries then 1
  else 0

let plural n = if n = 1 then "" else "s"

let pp_entry o ppf e =
  let pos = e.target.pos in
  Format.fprintf ppf "%a" (Statics.pp_human ~pos) e.st;
  if o.show_values then Format.fprintf ppf "%a" Statics.pp_values_human e.st;
  if o.races then Format.fprintf ppf "%a" (Statics.pp_races_human ~pos) e.st;
  if o.graph then Format.fprintf ppf "%a" Statics.pp_graph_human e.st;
  Option.iter
    (fun (p, fails) ->
      Format.fprintf ppf "%a"
        (Predict.pp_human ~replay_with:(spec e.target))
        p;
      if o.gate <> None then
        if fails = [] then
          let n = List.length (Predict.predictions p) in
          Format.fprintf ppf
            "prediction gate: OK (%d prediction%s re-certified by replay)@." n
            (plural n)
        else
          List.iter
            (fun (b, msg) ->
              Format.fprintf ppf "prediction gate: FAILED: %s: %s@." b msg)
            fails)
    e.prediction;
  Option.iter
    (Format.fprintf ppf "%a" (Gate.pp ~values:(Statics.values e.st <> None)))
    e.gate_result

let pp_human ~single ppf t =
  List.iter
    (fun e ->
      if not single then Format.fprintf ppf "== %s ==@." e.target.name;
      pp_entry t.options ppf e)
    t.entries

let entry_json o e =
  let pos = e.target.pos in
  let field on name doc = if on then [ (name, doc ()) ] else [] in
  let predict_doc (p, fails) =
    let open Json in
    match Predict.to_json ~replay_with:(spec e.target) p with
    | Obj pf when o.gate <> None ->
      let failure (b, m) = Obj [ ("block", String b); ("message", String m) ] in
      let recertified =
        List.length (Predict.predictions p) - List.length fails
      in
      Obj
        (pf
        @ [
            ( "gate",
              Obj
                [
                  ("recertified", Int recertified);
                  ("failures", List (List.map failure fails));
                  ("ok", Bool (fails = []));
                ] );
          ])
    | pdoc -> pdoc
  in
  let extras =
    Option.fold ~none:[] ~some:(fun g -> [ ("gate", Gate.to_json g) ])
      e.gate_result
    @ field o.show_values "values" (fun () -> Statics.values_json e.st)
    @ field o.races "races" (fun () -> Statics.races_to_json ~pos e.st)
    @ field o.graph "graph" (fun () -> Statics.graph_json e.st)
    @ Option.fold ~none:[]
        ~some:(fun pi -> [ ("predict", predict_doc pi) ])
        e.prediction
  in
  match Statics.to_json ~pos ~file:e.target.name e.st with
  | Json.Obj fields -> Json.Obj (fields @ extras)
  | doc -> doc

let to_json ~single t =
  match List.map (entry_json t.options) t.entries with
  | [ d ] when single -> d
  | ds -> Json.List ds

let write_dots dir t =
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  List.concat_map
    (fun e ->
      let slug =
        String.map
          (function '.' | '/' | '(' | ')' | ' ' -> '_' | c -> c)
          e.target.name
      in
      List.map
        (fun (kind, dot) ->
          let path = Filename.concat dir (slug ^ "." ^ kind ^ ".dot") in
          Out_channel.with_open_bin path (fun oc -> output_string oc dot);
          path)
        (Statics.graph_dots e.st))
    t.entries

(* --- replaying one schedule -------------------------------------------- *)

type replay = Certified of int | Not_certified of string

let replay target ~block ~schedule =
  let st = Statics.analyze target.program in
  match
    List.find_opt
      (fun (b : Statics.block) -> b.Statics.name = block)
      (Statics.blocks st)
  with
  | None -> Error (Printf.sprintf "no atomic block named %S" block)
  | Some b -> (
    match Velodrome_predict.Plan.parse_schedule schedule with
    | Error msg -> Error (Printf.sprintf "bad --schedule: %s" msg)
    | Ok plan -> (
      match Predict.replay_and_certify target.program b.Statics.label plan with
      | Ok idx -> Ok (Certified idx)
      | Error msg -> Ok (Not_certified msg)))

let pp_replay ~block ppf = function
  | Certified idx ->
    Format.fprintf ppf
      "%s: certified violation at event %d under the forced schedule@." block
      idx
  | Not_certified msg -> Format.fprintf ppf "%s: not certified: %s@." block msg
