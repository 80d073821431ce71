type t = {
  n : int;
  succ : (int, unit) Hashtbl.t array;
  mutable edges : int;
}

let create n =
  if n < 0 then invalid_arg "Digraph.create: negative size";
  { n; succ = Array.init n (fun _ -> Hashtbl.create 4); edges = 0 }

let node_count g = g.n
let edge_count g = g.edges

let check g u =
  if u < 0 || u >= g.n then invalid_arg "Digraph: node out of range"

let mem_edge g u v =
  check g u;
  check g v;
  Hashtbl.mem g.succ.(u) v

let add_edge g u v =
  check g u;
  check g v;
  if u <> v && not (Hashtbl.mem g.succ.(u) v) then begin
    Hashtbl.add g.succ.(u) v ();
    g.edges <- g.edges + 1
  end

let iter_edges g f =
  for u = 0 to g.n - 1 do
    Hashtbl.iter (fun v () -> f u v) g.succ.(u)
  done

(* Iterative three-colour DFS. 0 = white, 1 = grey (on stack), 2 = black.
   When a grey node is re-entered, the grey path from that node to the top
   of the DFS stack is a cycle. *)
let find_cycle g =
  let colour = Array.make g.n 0 in
  let parent = Array.make g.n (-1) in
  let cycle = ref None in
  let rec visit u =
    colour.(u) <- 1;
    let exception Found in
    (try
       Hashtbl.iter
         (fun v () ->
           if !cycle <> None then raise Found
           else if colour.(v) = 0 then begin
             parent.(v) <- u;
             visit v
           end
           else if colour.(v) = 1 then begin
             (* Path v ->* u in the DFS tree plus edge u -> v closes a
                cycle; reconstruct it from parents. *)
             let rec collect w acc =
               if w = v then w :: acc else collect parent.(w) (w :: acc)
             in
             cycle := Some (collect u []);
             raise Found
           end)
         g.succ.(u)
     with Found -> ());
    colour.(u) <- 2
  in
  (try
     for u = 0 to g.n - 1 do
       if colour.(u) = 0 && !cycle = None then visit u
     done
   with Stack_overflow ->
     (* Extremely deep graphs are not expected here; fail loudly. *)
     failwith "Digraph.find_cycle: graph too deep");
  !cycle

let has_cycle g = find_cycle g <> None

let topological_order g =
  if has_cycle g then None
  else begin
    let indeg = Array.make g.n 0 in
    iter_edges g (fun _ v -> indeg.(v) <- indeg.(v) + 1);
    let queue = Queue.create () in
    for u = 0 to g.n - 1 do
      if indeg.(u) = 0 then Queue.add u queue
    done;
    let order = ref [] in
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      order := u :: !order;
      Hashtbl.iter
        (fun v () ->
          indeg.(v) <- indeg.(v) - 1;
          if indeg.(v) = 0 then Queue.add v queue)
        g.succ.(u)
    done;
    Some (List.rev !order)
  end

let reachable g src dst =
  check g src;
  check g dst;
  if src = dst then true
  else begin
    let seen = Array.make g.n false in
    let stack = Stack.create () in
    Stack.push src stack;
    seen.(src) <- true;
    let found = ref false in
    while (not !found) && not (Stack.is_empty stack) do
      let u = Stack.pop stack in
      Hashtbl.iter
        (fun v () ->
          if v = dst then found := true
          else if not seen.(v) then begin
            seen.(v) <- true;
            Stack.push v stack
          end)
        g.succ.(u)
    done;
    !found
  end
