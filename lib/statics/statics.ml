open Velodrome_trace
open Velodrome_trace.Ids
open Velodrome_sim
module IntSet = Set.Make (Int)

type proof = Lipton | Cycle_free

type verdict =
  | Proved_atomic of proof
  | May_violate of Txgraph.witness
  | Unknown of Reduce.reason list

type block = {
  label : Label.t;
  name : string;
  sites : Cfg.site list;
  verdict : verdict;
  lipton_reasons : Reduce.reason list;
}

type t = {
  names : Names.t;
  cfg : Cfg.t;
  locksets : Lockset.t;
  mhp : Mhp.t;
  races : Races.t;
  movers : Movers.t;
  graph : Txgraph.t;
  vals : Values.t option;
  blocks : block list;
  proved_ids : IntSet.t;  (** either proof rule *)
  lipton_ids : IntSet.t;
}

let analyze ?(values = true) (p : Ast.program) =
  let names = p.Ast.names in
  let cfg = Cfg.of_program p in
  let vals = if values then Some (Values.analyze p) else None in
  let dead =
    match vals with
    | Some v -> fun site -> Values.dead_site v site
    | None -> fun _ -> false
  in
  let locksets = Lockset.analyze ~dead cfg in
  let mhp = Mhp.analyze ~dead cfg in
  let races = Races.analyze ~dead names cfg locksets mhp in
  let movers = Movers.analyze ~dead names cfg locksets races in
  let occs = Reduce.occurrences ~dead names movers p in
  let graph = Txgraph.build names cfg locksets mhp occs in
  let by_label = Hashtbl.create 16 in
  List.iter
    (fun (o : Reduce.occurrence) ->
      let k = Label.to_int o.Reduce.label in
      let sites, reasons =
        Option.value ~default:([], []) (Hashtbl.find_opt by_label k)
      in
      Hashtbl.replace by_label k
        (o.Reduce.site :: sites, o.Reduce.reasons @ reasons))
    occs;
  let blocks =
    Hashtbl.fold
      (fun k (sites, reasons) acc ->
        let label = Label.of_int k in
        let sites = List.sort Cfg.site_compare sites in
        let lipton_reasons =
          List.sort_uniq Reduce.reason_compare reasons
        in
        let verdict =
          if lipton_reasons = [] then Proved_atomic Lipton
          else if Txgraph.exhausted graph then Unknown lipton_reasons
          else if List.for_all (Txgraph.cycle_free graph) sites then
            Proved_atomic Cycle_free
          else
            match List.find_map (Txgraph.witness_for graph) sites with
            | Some w -> May_violate w
            | None -> Unknown lipton_reasons
        in
        { label; name = Names.label_name names label; sites; verdict;
          lipton_reasons }
        :: acc)
      by_label []
    |> List.sort (fun a b -> Label.compare a.label b.label)
  in
  let ids pred =
    List.fold_left
      (fun acc b ->
        if pred b.verdict then IntSet.add (Label.to_int b.label) acc else acc)
      IntSet.empty blocks
  in
  let proved_ids =
    ids (function Proved_atomic _ -> true | _ -> false)
  in
  let lipton_ids =
    ids (function Proved_atomic Lipton -> true | _ -> false)
  in
  { names; cfg; locksets; mhp; races; movers; graph; vals; blocks;
    proved_ids; lipton_ids }

let blocks t = t.blocks
let values t = t.vals

let dead_site_count t =
  match t.vals with Some v -> Values.dead_site_count v | None -> 0

let dead_branch_count t =
  match t.vals with Some v -> Values.dead_branch_count v | None -> 0
let cfg t = t.cfg
let locksets t = t.locksets
let mhp t = t.mhp
let races t = t.races
let race_pairs t = Races.pairs t.races
let race_pair_count t = Races.pair_count t.races
let names t = t.names
let movers t = t.movers
let txgraph t = t.graph
let proved t l = IntSet.mem (Label.to_int l) t.proved_ids
let proved_count t = IntSet.cardinal t.proved_ids
let proved_lipton_count t = IntSet.cardinal t.lipton_ids
let proved_cycle_free_count t = proved_count t - proved_lipton_count t

let count_verdict t pred = List.length (List.filter (fun b -> pred b.verdict) t.blocks)

let may_violate_count t =
  count_verdict t (function May_violate _ -> true | _ -> false)

let unknown_count t =
  count_verdict t (function Unknown _ -> true | _ -> false)

let block_count t = List.length t.blocks

(* --- rendering ----------------------------------------------------------- *)

let verdict_string = function
  | Proved_atomic _ -> "proved-atomic"
  | May_violate _ -> "may-violate"
  | Unknown _ -> "unknown"

let proof_string = function Lipton -> "lipton" | Cycle_free -> "cycle-free"

(* The dead-branch lint: one line per arm the value analysis proved a
   thread can never take. Informational only — exit-code semantics are
   driven by verdicts, never by lint lines. *)
let pp_dead_branches ppf t =
  match t.vals with
  | None -> ()
  | Some v ->
    List.iter
      (fun (d : Values.dead_branch) ->
        Format.fprintf ppf "DEAD BRANCH %s.%s: thread %d %s@."
          (Cfg.site_to_string d.Values.d_site)
          (Values.arm_string d.Values.d_arm)
          d.Values.d_site.Cfg.thread
          (Values.arm_message d.Values.d_arm))
      (Values.dead_branches v)

let pp_human ?(pos = fun _ -> None) ppf t =
  List.iter
    (fun b ->
      let where =
        match pos b.label with
        | Some (line, col) -> Printf.sprintf " (%d:%d)" line col
        | None -> ""
      in
      let occs =
        Printf.sprintf "%d occurrence%s" (List.length b.sites)
          (if List.length b.sites = 1 then "" else "s")
      in
      match b.verdict with
      | Proved_atomic proof ->
        Format.fprintf ppf "%-24s%s proved atomic by %s (%s)@." b.name where
          (proof_string proof) occs
      | May_violate w ->
        Format.fprintf ppf "%-24s%s MAY VIOLATE (%s)@." b.name where occs;
        Format.fprintf ppf "    %s@." (Txgraph.explain t.graph w)
      | Unknown reasons ->
        Format.fprintf ppf "%-24s%s UNKNOWN (%s)@." b.name where occs;
        List.iter
          (fun (r : Reduce.reason) ->
            Format.fprintf ppf "    %a: %s@." Cfg.pp_site r.Reduce.site
              r.Reduce.detail)
          reasons)
    t.blocks;
  pp_dead_branches ppf t;
  Format.fprintf ppf
    "%d/%d blocks proved atomic (%d lipton, %d cycle-free), %d may-violate@."
    (proved_count t) (block_count t) (proved_lipton_count t)
    (proved_cycle_free_count t) (may_violate_count t)

let summary_json t =
  let open Velodrome_util.Json in
  Obj
    [
      ("blocks", Int (block_count t));
      ("proved", Int (proved_count t));
      ("proved_lipton", Int (proved_lipton_count t));
      ("proved_cycle_free", Int (proved_cycle_free_count t));
      ("may_violate", Int (may_violate_count t));
      ("unknown", Int (unknown_count t));
      ("race_pairs", Int (race_pair_count t));
      ("racy_vars", Int (Races.racy_var_count t.races));
      ("dead_sites", Int (dead_site_count t));
      ("dead_branches", Int (dead_branch_count t));
    ]

let to_json ?(pos = fun _ -> None) ?file t =
  let open Velodrome_util.Json in
  let block_json b =
    let position =
      match pos b.label with
      | Some (line, col) -> Obj [ ("line", Int line); ("col", Int col) ]
      | None -> Null
    in
    let reasons =
      List.map
        (fun (r : Reduce.reason) ->
          Obj
            [
              ("site", String (Cfg.site_to_string r.Reduce.site));
              ("detail", String r.Reduce.detail);
            ])
        b.lipton_reasons
    in
    let proof =
      match b.verdict with
      | Proved_atomic p -> String (proof_string p)
      | May_violate _ | Unknown _ -> Null
    in
    let witness =
      match b.verdict with
      | May_violate w -> Txgraph.witness_json t.graph w
      | Proved_atomic _ | Unknown _ -> Null
    in
    Obj
      [
        ("label", String b.name);
        ("verdict", String (verdict_string b.verdict));
        ("proof", proof);
        ("position", position);
        ( "occurrences",
          List (List.map (fun s -> String (Cfg.site_to_string s)) b.sites) );
        ("reasons", List reasons);
        ("witness", witness);
      ]
  in
  Obj
    (List.concat
       [
         (match file with Some f -> [ ("file", String f) ] | None -> []);
         [
           ("blocks", List (List.map block_json t.blocks));
           ("summary", summary_json t);
         ];
       ])

(* --- conflict-graph report ----------------------------------------------- *)

let pp_graph_human ppf t =
  let s = Txgraph.stats t.graph in
  Format.fprintf ppf
    "conflict graph: %d ops in %d regions; %d conflict, %d lock, %d \
     program-order, %d cross-instance edges; %d passage (%d slack, %d \
     accepted)@."
    s.Txgraph.ops s.Txgraph.regions s.Txgraph.conflict_edges
    s.Txgraph.lock_edges s.Txgraph.po_edges s.Txgraph.cross_instance_edges
    s.Txgraph.passage_edges s.Txgraph.slack_edges
    s.Txgraph.accepted_slack_edges;
  if Txgraph.exhausted t.graph then
    Format.fprintf ppf "graph search exhausted its budget@.";
  List.iter
    (fun b ->
      match b.verdict with
      | May_violate w ->
        Format.fprintf ppf "%-24s %s@." b.name (Txgraph.explain t.graph w)
      | Proved_atomic _ | Unknown _ -> ())
    t.blocks

let graph_json t =
  let open Velodrome_util.Json in
  let s = Txgraph.stats t.graph in
  Obj
    [
      ( "stats",
        Obj
          [
            ("ops", Int s.Txgraph.ops);
            ("regions", Int s.Txgraph.regions);
            ("conflict_edges", Int s.Txgraph.conflict_edges);
            ("lock_edges", Int s.Txgraph.lock_edges);
            ("po_edges", Int s.Txgraph.po_edges);
            ("cross_instance_edges", Int s.Txgraph.cross_instance_edges);
            ("passage_edges", Int s.Txgraph.passage_edges);
            ("slack_edges", Int s.Txgraph.slack_edges);
            ("accepted_slack_edges", Int s.Txgraph.accepted_slack_edges);
          ] );
      ("exhausted", Bool (Txgraph.exhausted t.graph));
      ( "witnesses",
        List
          (List.filter_map
             (fun b ->
               match b.verdict with
               | May_violate w -> Some (Txgraph.witness_json t.graph w)
               | Proved_atomic _ | Unknown _ -> None)
             t.blocks) );
    ]

let slug s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
      | _ -> '_')
    s

(* Whole-program CFG annotated with value facts: every node carries its
   site, effect and (when one exists) the fact interval; dead nodes are
   grayed out. *)
let values_dot t v =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph cfg_values {\n";
  Buffer.add_string buf "  node [shape=box, fontsize=10];\n";
  Cfg.iter_nodes
    (fun n ->
      let site = n.Cfg.site in
      let fact =
        match Values.fact_at v site with
        | Some f ->
          Printf.sprintf "\\n%s %s"
            (Values.target_string t.names f.Values.target)
            (Values.itv_to_string f.Values.itv)
        | None -> ""
      in
      let style =
        if Values.dead_site v site then
          ", style=dashed, color=gray, fontcolor=gray"
        else ""
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\\n%s%s\"%s];\n" n.Cfg.id
           (Cfg.site_to_string site)
           (Format.asprintf "%a" (Cfg.pp_eff t.names) n.Cfg.eff)
           fact style))
    t.cfg;
  for id = 0 to Cfg.node_count t.cfg - 1 do
    List.iter
      (fun s ->
        Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" id s))
      (Cfg.succs t.cfg id)
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let graph_dots t =
  ("txgraph", Txgraph.to_dot t.graph)
  :: List.filter_map
       (fun b ->
         match b.verdict with
         | May_violate w ->
           Some ("cycle_" ^ slug b.name, Txgraph.witness_dot t.graph w)
         | Proved_atomic _ | Unknown _ -> None)
       t.blocks
  @ (match t.vals with
    | Some v -> [ ("cfg_values", values_dot t v) ]
    | None -> [])

(* --- value-analysis report ----------------------------------------------- *)

let pp_values_human ppf t =
  match t.vals with
  | None -> Format.fprintf ppf "value analysis disabled@."
  | Some v ->
    List.iter
      (fun (f : Values.fact) ->
        Format.fprintf ppf "  %s: %s %s@."
          (Cfg.site_to_string f.Values.f_site)
          (Values.target_string t.names f.Values.target)
          (Values.itv_to_string f.Values.itv))
      (Values.facts v);
    List.iter
      (fun (d : Values.dead_branch) ->
        Format.fprintf ppf "  dead %s arm of %s@."
          (Values.arm_string d.Values.d_arm)
          (Cfg.site_to_string d.Values.d_site))
      (Values.dead_branches v);
    Format.fprintf ppf
      "value analysis: %d facts, %d dead sites, %d dead branches@."
      (Values.fact_count v)
      (Values.dead_site_count v)
      (Values.dead_branch_count v)

let values_json t =
  let open Velodrome_util.Json in
  match t.vals with
  | None -> Null
  | Some v ->
    let fact_json (f : Values.fact) =
      Obj
        [
          ("site", String (Cfg.site_to_string f.Values.f_site));
          ("target", String (Values.target_string t.names f.Values.target));
          ("interval", String (Values.itv_to_string f.Values.itv));
        ]
    in
    let branch_json (d : Values.dead_branch) =
      Obj
        [
          ("site", String (Cfg.site_to_string d.Values.d_site));
          ("arm", String (Values.arm_string d.Values.d_arm));
          ("thread", Int d.Values.d_site.Cfg.thread);
        ]
    in
    Obj
      [
        ("facts", List (List.map fact_json (Values.facts v)));
        ( "dead_branches",
          List (List.map branch_json (Values.dead_branches v)) );
        ( "summary",
          Obj
            [
              ("facts", Int (Values.fact_count v));
              ("dead_sites", Int (Values.dead_site_count v));
              ("dead_branches", Int (Values.dead_branch_count v));
            ] );
      ]

(* --- race report --------------------------------------------------------- *)

(* A race-pair access has no label of its own; the innermost enclosing
   atomic block is the closest stable anchor a source position can hang
   off. *)
let access_position pos (acc : Races.access) =
  match acc.Races.atomics with [] -> None | l :: _ -> pos l

let pp_races_human ?(pos = fun _ -> None) ppf t =
  let pair_no = ref 0 in
  List.iter
    (fun (p : Races.pair) ->
      incr pair_no;
      let endpoint (acc : Races.access) =
        let where =
          match access_position pos acc with
          | Some (line, col) -> Printf.sprintf " (%d:%d)" line col
          | None -> ""
        in
        Format.fprintf ppf "    %s at %s%s@."
          (if acc.Races.write then "write" else "read")
          (Cfg.site_to_string acc.Races.site)
          where
      in
      Format.fprintf ppf "race #%d on %s: %s@." !pair_no
        (Names.var_name t.names p.Races.var)
        (Races.explain t.names p);
      endpoint p.Races.a;
      endpoint p.Races.b)
    (race_pairs t);
  Format.fprintf ppf "%d race pair%s on %d variable%s (%d access sites)@."
    (race_pair_count t)
    (if race_pair_count t = 1 then "" else "s")
    (Races.racy_var_count t.races)
    (if Races.racy_var_count t.races = 1 then "" else "s")
    (Races.access_sites t.races)

let races_to_json ?(pos = fun _ -> None) t =
  let open Velodrome_util.Json in
  let access_json (acc : Races.access) =
    let position =
      match access_position pos acc with
      | Some (line, col) -> Obj [ ("line", Int line); ("col", Int col) ]
      | None -> Null
    in
    Obj
      [
        ("site", String (Cfg.site_to_string acc.Races.site));
        ("access", String (if acc.Races.write then "write" else "read"));
        ( "locks",
          List
            (List.map
               (fun l ->
                 String (Names.lock_name t.names (Lock.of_int l)))
               acc.Races.locks) );
        ( "atomic",
          match acc.Races.atomics with
          | [] -> Null
          | l :: _ -> String (Names.label_name t.names l) );
        ("position", position);
      ]
  in
  let pair_json (p : Races.pair) =
    Obj
      [
        ("var", String (Names.var_name t.names p.Races.var));
        ("a", access_json p.Races.a);
        ("b", access_json p.Races.b);
        ("explanation", String (Races.explain t.names p));
      ]
  in
  Obj
    [
      ("pairs", List (List.map pair_json (race_pairs t)));
      ( "summary",
        Obj
          [
            ("pairs", Int (race_pair_count t));
            ("racy_vars", Int (Races.racy_var_count t.races));
            ("access_sites", Int (Races.access_sites t.races));
            ("blocks", Int (block_count t));
            ("proved", Int (proved_count t));
          ] );
    ]
