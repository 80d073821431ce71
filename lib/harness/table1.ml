open Velodrome_trace
open Velodrome_analysis
open Velodrome_workloads
open Velodrome_sim

type row = {
  workload : string;
  stmts : int;
  events : int;
  base_ms : float;
  slow_empty : float;
  slow_eraser : float;
  slow_atomizer : float;
  slow_velodrome : float;
  alloc_nomerge : int;
  alive_nomerge : int;
  alloc_merge : int;
  alive_merge : int;
}

let run_row ?(seed = 42) ?(repeats = 3) size (w : Workload.t) =
  let program = w.Workload.build size in
  let names = program.Ast.names in
  let truth = Common.ground_truth w in
  let excluded l =
    match Hashtbl.find_opt truth (Names.label_name names l) with
    | Some g -> not g.Workload.atomic
    | None -> false
  in
  let timed mk_backends =
    Common.time_stable repeats (fun () ->
        ignore (Common.run_once ~seed program mk_backends))
  in
  let base = timed (fun _ -> []) in
  let slow t = Velodrome_util.Stats.ratio t base in
  let t_empty = timed (fun n -> [ Backend.make (module Empty) n ]) in
  let t_eraser =
    timed (fun n ->
        [ Backend.make (Velodrome_eraser.Eraser.backend ()) n ])
  in
  let t_atomizer =
    timed (fun n ->
        [
          Exclude.methods ~excluded
            (Backend.make (Velodrome_atomizer.Atomizer.backend ()) n);
        ])
  in
  let t_velodrome =
    timed (fun n ->
        [
          Exclude.methods ~excluded
            (Backend.make (Velodrome_core.Engine.backend ()) n);
        ])
  in
  (* Node statistics: replay one recorded trace offline, once through
     Figure 2 (Basic) and once through Figure 4 (Engine). *)
  let res = Common.run_once ~seed ~record_trace:true program (fun _ -> []) in
  let ops =
    Exclude.filter_ops ~excluded
      (Trace.to_list (Option.get res.Run.trace))
  in
  let nomerge = Velodrome_core.Basic.create names in
  let merged = Velodrome_core.Engine.create names in
  List.iteri
    (fun index op ->
      let e = Event.make ~index op in
      Velodrome_core.Basic.on_event nomerge e;
      Velodrome_core.Engine.on_event merged e)
    ops;
  Velodrome_core.Basic.finish nomerge;
  Velodrome_core.Engine.finish merged;
  {
    workload = w.Workload.name;
    stmts = Ast.stmt_count program;
    events = res.Run.events;
    base_ms = base *. 1000.0;
    slow_empty = slow t_empty;
    slow_eraser = slow t_eraser;
    slow_atomizer = slow t_atomizer;
    slow_velodrome = slow t_velodrome;
    alloc_nomerge = Velodrome_core.Basic.nodes_allocated nomerge;
    alive_nomerge = Velodrome_core.Basic.nodes_max_alive nomerge;
    alloc_merge = Velodrome_core.Engine.nodes_allocated merged;
    alive_merge = Velodrome_core.Engine.nodes_max_alive merged;
  }

let run ?(size = Workload.Medium) ?(seed = 42) ?(repeats = 3) () =
  List.map (run_row ~seed ~repeats size) Workload.all

let print ppf rows =
  Format.fprintf ppf
    "%-11s %6s %8s %9s | %6s %7s %9s %10s | %9s %6s %9s %6s@."
    "Program" "Stmts" "Events" "Base(ms)" "Empty" "Eraser" "Atomizer"
    "Velodrome" "Alloc(nm)" "Max(nm)" "Alloc(m)" "Max(m)";
  List.iter
    (fun r ->
      Format.fprintf ppf
        "%-11s %6d %8d %9.1f | %6.1f %7.1f %9.1f %10.1f | %9d %6d %9d %6d@."
        r.workload r.stmts r.events r.base_ms r.slow_empty r.slow_eraser
        r.slow_atomizer r.slow_velodrome r.alloc_nomerge r.alive_nomerge
        r.alloc_merge r.alive_merge)
    rows
