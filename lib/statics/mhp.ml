open Velodrome_trace.Ids

type t = {
  thread_count : int;
  effectful : bool array;  (** per thread: any reachable observable effect *)
  reach : bool array;  (** per node id *)
  atomics : Label.t list array;
      (** per node id: enclosing atomic labels, innermost first *)
}

(* One forward pass from the entries computes reachability and the
   enclosing-atomic-block chain together. The chain transfer pushes at
   [Enter] and pops at [Exit]; the CFG is lowered from a structured AST,
   so every join (if-merge, loop head) receives the same chain from all
   predecessors and the first-visit value is the fixpoint. *)
let analyze ?(dead = fun (_ : Cfg.site) -> false) (cfg : Cfg.t) =
  let n = Cfg.node_count cfg in
  let entries = Cfg.entries cfg in
  let thread_count = Array.length entries in
  let reach = Array.make n false in
  let atomics = Array.make n [] in
  let queue = Queue.create () in
  let alive id = not (dead (Cfg.node cfg id).Cfg.site) in
  Array.iter
    (fun e ->
      if alive e && not reach.(e) then begin
        reach.(e) <- true;
        Queue.add e queue
      end)
    entries;
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    let out =
      match (Cfg.node cfg id).Cfg.eff with
      | Cfg.Enter l -> l :: atomics.(id)
      | Cfg.Exit _ -> ( match atomics.(id) with _ :: tl -> tl | [] -> [])
      | _ -> atomics.(id)
    in
    List.iter
      (fun s ->
        if alive s && not reach.(s) then begin
          reach.(s) <- true;
          atomics.(s) <- out;
          Queue.add s queue
        end)
      (Cfg.succs cfg id)
  done;
  let effectful = Array.make (max thread_count 1) false in
  Cfg.iter_nodes
    (fun nd ->
      match nd.Cfg.eff with
      | Cfg.Read _ | Cfg.Write _ | Cfg.Acquire _ | Cfg.Release _ ->
        if reach.(nd.Cfg.id) then effectful.(nd.Cfg.site.Cfg.thread) <- true
      | Cfg.Enter _ | Cfg.Exit _ | Cfg.Silent -> ())
    cfg;
  { thread_count; effectful; reach; atomics }

let thread_count t = t.thread_count
let effectful t i = i >= 0 && i < Array.length t.effectful && t.effectful.(i)

let threads t i j = i <> j && effectful t i && effectful t j

let reachable t id = id >= 0 && id < Array.length t.reach && t.reach.(id)

let concurrent t (a : Cfg.node) (b : Cfg.node) =
  a.Cfg.site.Cfg.thread <> b.Cfg.site.Cfg.thread
  && reachable t a.Cfg.id
  && reachable t b.Cfg.id

let enclosing_atomics t id =
  if id >= 0 && id < Array.length t.atomics then t.atomics.(id) else []
