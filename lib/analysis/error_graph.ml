open Velodrome_trace
open Velodrome_util

type gnode = { id : int; tid : int; label : int; blamed : bool }
type gedge = { src : int; dst : int; op : Op.t option; closing : bool }
type t = { nodes : gnode list; edges : gedge list }

let node_title names n =
  let label =
    if n.label >= 0 then
      Names.label_name names (Ids.Label.of_int n.label)
    else "(unary)"
  in
  Printf.sprintf "Thread %d: %s" n.tid label

let op_label names = function
  | None -> ""
  | Some op -> Format.asprintf "%a" (Op.pp_named names) op

let to_dot names ~name g =
  let nodes =
    List.map
      (fun n ->
        {
          Dot.id = string_of_int n.id;
          label = node_title names n;
          emphasized = n.blamed;
        })
      g.nodes
  in
  let edges =
    List.map
      (fun e ->
        {
          Dot.src = string_of_int e.src;
          dst = string_of_int e.dst;
          edge_label = op_label names e.op;
          dashed = e.closing;
        })
      g.edges
  in
  Dot.render ~name nodes edges

let summary names g =
  let b = Buffer.create 128 in
  let title id =
    match List.find_opt (fun n -> n.id = id) g.nodes with
    | Some n ->
      Buffer.add_string b
        (if n.label >= 0 then Names.label_name names (Ids.Label.of_int n.label)
         else "unary");
      Buffer.add_string b "(t";
      Buffer.add_string b (string_of_int n.tid);
      Buffer.add_char b ')'
    | None ->
      Buffer.add_char b '#';
      Buffer.add_string b (string_of_int id)
  in
  match g.edges with
  | [] -> "(empty cycle)"
  | first :: _ ->
    List.iter
      (fun e ->
        title e.src;
        Buffer.add_string b " -> ")
      g.edges;
    title first.src;
    Buffer.contents b
