open Velodrome_trace
open Velodrome_trace.Ids

type kind = Atomicity_violation | Reduction_failure | Race | Deadlock

type t = {
  analysis : string;
  kind : kind;
  tid : Tid.t option;
  label : Label.t option;
  var : Var.t option;
  text : string;
  cycle : Error_graph.t option;
  index : int;
  blamed : bool;
  refuted : Label.t list;
}

let make ~analysis ~kind ?tid ?label ?var ?cycle ?(blamed = false)
    ?(refuted = []) ~index text =
  { analysis; kind; tid; label; var; text; cycle; index; blamed; refuted }

let kind_to_string = function
  | Atomicity_violation -> "atomicity-violation"
  | Reduction_failure -> "reduction-failure"
  | Race -> "race"
  | Deadlock -> "deadlock"

let message names w =
  match w.cycle with
  | None -> w.text
  | Some g ->
    String.concat "" [ w.text; "; cycle: "; Error_graph.summary names g ]

let dot names w =
  Option.map
    (fun g ->
      let name =
        match w.label with Some l -> Names.label_name names l | None -> "cycle"
      in
      Error_graph.to_dot names ~name g)
    w.cycle

let pp names ppf w =
  let label =
    match w.label with
    | Some l -> Printf.sprintf " [%s]" (Names.label_name names l)
    | None -> ""
  in
  let var =
    match w.var with
    | Some x -> Printf.sprintf " on %s" (Names.var_name names x)
    | None -> ""
  in
  Format.fprintf ppf "%s: %s%s%s at #%d: %s" w.analysis
    (kind_to_string w.kind) label var w.index (message names w)

(* The JSON projection the CLI prints for check-trace and serve; field
   order is part of the pinned output. *)
let to_json names w =
  let open Velodrome_util.Json in
  let opt name to_s = function
    | None -> []
    | Some v -> [ (name, String (to_s v)) ]
  in
  Obj
    ([
       ("analysis", String w.analysis);
       ("kind", String (kind_to_string w.kind));
     ]
    @ opt "label" (Names.label_name names) w.label
    @ opt "var" (Names.var_name names) w.var
    @ [ ("index", Int w.index); ("blamed", Bool w.blamed) ]
    @ (match w.refuted with
      | [] -> []
      | ls ->
        [
          ( "refuted",
            List (List.map (fun l -> String (Names.label_name names l)) ls)
          );
        ])
    @ [ ("message", String (message names w)) ])

let dedup_by_label ws =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun w ->
      let key =
        match w.label with
        | Some l -> (w.analysis, w.kind, `Label (Label.to_int l))
        | None ->
          ( w.analysis,
            w.kind,
            `Anon
              ( Option.map Var.to_int w.var,
                Option.map Tid.to_int w.tid ) )
      in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.replace seen key ();
        true
      end)
    ws
