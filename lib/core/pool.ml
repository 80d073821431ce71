open Velodrome_trace
open Velodrome_util

type node = {
  slot : int;
  mutable next_ts : int;
  mutable collected_upto : int;
  mutable live : bool;
  mutable active : bool;
  mutable refcount : int;
  out : edge Vec.t;  (** out-edges; the destination slot lives in the edge *)
  ancestors : Bitset.t;  (** live slots with a path here *)
  descendants : Bitset.t;
      (** live slots this node has a path to — the mirror of [ancestors],
          so collecting a node clears its ancestor bit-column by visiting
          exactly the nodes that carry it *)
  mutable d_tid : int;
  mutable d_label : int;
}

and edge = {
  dst_slot : int;
  mutable tail_ts : int;
  mutable head_ts : int;
  mutable diag_op : Op.t option;
  mutable diag_index : int;
}

(* A path as its hops: hop [i] leaves the node at slot [hop_slots.(i)] on
   its out-edge [hop_edges.(i)]. [target] is the last node's slot. *)
type path = {
  mutable hop_slots : int array;
  mutable hop_edges : int array;
  mutable len : int;
  mutable target : int;
}

exception Slots_exhausted

type t = {
  slots : node Vec.t;  (** every slot record ever created; index = slot *)
  mutable free : int array;
      (** recycled slots, a stack of ints: push and pop neither cons nor
          go through the write barrier *)
  mutable nfree : int;
  mutable live_count : int;
  counter : Stats.counter;
  mutable clear_work : int;
      (** cumulative nodes visited while clearing ancestor bit-columns in
          [collect]; instrumentation for the free-cost regression test *)
}

let create () =
  {
    slots = Vec.create ();
    free = Array.make 16 0;
    nfree = 0;
    live_count = 0;
    counter = Stats.counter ();
    clear_work = 0;
  }

let[@inline] slot n = n.slot
let is_live n = n.live
let[@inline] is_active n = n.active
let diag_tid n = n.d_tid
let diag_label n = n.d_label

let alloc t ~tid ~label =
  let n =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      let n = Vec.unsafe_get t.slots (Array.unsafe_get t.free t.nfree) in
      n.live <- true;
      n.active <- false;
      n.refcount <- 0;
      n
    end
    else begin
      let s = Vec.length t.slots in
      if s >= Step.max_slots then raise Slots_exhausted;
      let n =
        {
          slot = s;
          next_ts = 1;
          collected_upto = 0;
          live = true;
          active = false;
          refcount = 0;
          out = Vec.create ();
          ancestors = Bitset.create ~capacity:64 ();
          descendants = Bitset.create ~capacity:64 ();
          d_tid = -1;
          d_label = -1;
        }
      in
      Vec.push t.slots n;
      n
    end
  in
  n.d_tid <- tid;
  n.d_label <- label;
  t.live_count <- t.live_count + 1;
  Stats.incr t.counter;
  n

let[@inline] fresh_ts n =
  let ts = n.next_ts in
  n.next_ts <- ts + 1;
  ts

let[@inline] step_of n ~ts = Step.make_unchecked ~slot:n.slot ~ts

let[@inline] step_live t s =
  (not (Step.is_bottom s))
  &&
  let sl = Step.slot_unchecked s in
  sl < Vec.length t.slots
  &&
  let n = Vec.unsafe_get t.slots sl in
  n.live && Step.ts_unchecked s > n.collected_upto

let[@inline] node_of_step t s = Vec.unsafe_get t.slots (Step.slot_unchecked s)
let[@inline] node_at t slot = Vec.unsafe_get t.slots slot

let resolve t s = if step_live t s then Some (node_of_step t s) else None

(* Clear bit [slot] from the ancestor set of every node named by the bit
   pattern [x] (bit i of the pattern = slot [base + i]). Tail-recursive so
   the hot path allocates nothing. *)
let rec clear_column t ~slot x base =
  if x <> 0 then begin
    if x land 1 <> 0 then begin
      t.clear_work <- t.clear_work + 1;
      Bitset.clear_bit (Vec.unsafe_get t.slots base).ancestors slot
    end;
    if x land 0xff = 0 then clear_column t ~slot (x lsr 8) (base + 8)
    else clear_column t ~slot (x lsr 1) (base + 1)
  end

let rec collect t n =
  n.live <- false;
  n.collected_upto <- n.next_ts - 1;
  t.live_count <- t.live_count - 1;
  Stats.decr t.counter;
  (* Keep the ancestor-set invariant: sets only mention live slots. A node
     with no incoming edges has an empty ancestor set, and every node it
     reaches is exactly its descendant set — so the sweep visits only
     nodes that actually carry this slot's bit, never the whole live
     set. *)
  let dwords = Bitset.words n.descendants in
  for w = 0 to Array.length dwords - 1 do
    clear_column t ~slot:n.slot dwords.(w) (w * Bitset.bits_per_word)
  done;
  Bitset.reset n.descendants;
  Bitset.reset n.ancestors;
  if t.nfree = Array.length t.free then begin
    let free = Array.make (2 * t.nfree) 0 in
    Array.blit t.free 0 free 0 t.nfree;
    t.free <- free
  end;
  Array.unsafe_set t.free t.nfree n.slot;
  t.nfree <- t.nfree + 1;
  (* This node can never again be the target of an edge, so its outgoing
     edges cannot participate in any future cycle; drop them, releasing
     references and possibly cascading. *)
  for i = 0 to Vec.length n.out - 1 do
    let e = Vec.unsafe_get n.out i in
    let dst = Vec.unsafe_get t.slots e.dst_slot in
    if dst.live then begin
      dst.refcount <- dst.refcount - 1;
      maybe_collect t dst
    end
  done;
  Vec.clear n.out

and maybe_collect t n =
  if n.live && (not n.active) && n.refcount = 0 then collect t n

let set_active t n b =
  n.active <- b;
  if not b then maybe_collect t n

let sweep = maybe_collect

let happens_before_or_eq _t a b =
  a.slot = b.slot || Bitset.mem b.ancestors a.slot

let create_path () =
  { hop_slots = Array.make 16 0; hop_edges = Array.make 16 0; len = 0;
    target = -1 }

let path_length p = p.len
let path_slot p i = if i = p.len then p.target else p.hop_slots.(i)
let path_edge_index p i = p.hop_edges.(i)
let path_edge t p i = Vec.get (node_at t p.hop_slots.(i)).out p.hop_edges.(i)

let push_hop p slot edge =
  if p.len = Array.length p.hop_slots then begin
    let cap = 2 * p.len in
    let ns = Array.make cap 0 and ne = Array.make cap 0 in
    Array.blit p.hop_slots 0 ns 0 p.len;
    Array.blit p.hop_edges 0 ne 0 p.len;
    p.hop_slots <- ns;
    p.hop_edges <- ne
  end;
  Array.unsafe_set p.hop_slots p.len slot;
  Array.unsafe_set p.hop_edges p.len edge;
  p.len <- p.len + 1

(* The first out-edge of [n], in insertion order, to [to_] or to a live
   node with a path to [to_]; -1 if none. *)
let rec next_hop t n (to_ : node) i =
  if i >= Vec.length n.out then -1
  else
    let d = node_at t (Vec.unsafe_get n.out i).dst_slot in
    if d.live && (d.slot = to_.slot || Bitset.mem to_.ancestors d.slot) then i
    else next_hop t n to_ (i + 1)

(* The path a depth-first search over live out-edges in insertion order
   would find, without its search. The graph is acyclic, so every node
   such a search enters and leaves without finding [to_] cannot reach
   [to_]; the search therefore takes, at each node, the first edge into
   an ancestor of [to_] (or [to_] itself) and never backtracks. The
   ancestor sets name exactly those nodes, so the path is a walk whose
   cost is the out-edges it reads. *)
let find_path t p ~from ~to_ =
  p.len <- 0;
  p.target <- to_.slot;
  let n = ref from in
  while !n != to_ do
    let i = next_hop t !n to_ 0 in
    (* The ancestor invariant guarantees a live path exists. *)
    if i < 0 then invalid_arg "Pool.find_path: no path";
    push_hop p !n.slot i;
    n := node_at t (Vec.unsafe_get !n.out i).dst_slot
  done

(* Set bit [m_slot] in the descendant set of every node named by the bit
   pattern [x]: the fresh ancestors [m] just gained. *)
let rec mirror_descendants t ~m_slot x base =
  if x <> 0 then begin
    if x land 1 <> 0 then
      Bitset.set (Vec.unsafe_get t.slots base).descendants m_slot;
    if x land 0xff = 0 then mirror_descendants t ~m_slot (x lsr 8) (base + 8)
    else mirror_descendants t ~m_slot (x lsr 1) (base + 1)
  end

(* [dst <- dst ∪ src] word-wise, mirroring every newly added ancestor bit
   into that ancestor's descendant set; returns whether [dst] changed.
   Hand-rolled rather than [Bitset.union_into_on_new] to keep the event
   fast path free of closure allocation. *)
let union_ancestors t ~src ~(m : node) =
  let sw = Bitset.words src in
  (* Size from the highest non-zero word, never from raw capacity: sizing
     one set from another's capacity lets capacities ratchet under
     repeated unions (each growth may double), and the word loop would
     then scan ever-larger tails of zeros. *)
  let top = Bitset.top_word src in
  if top >= 0 then
    Bitset.ensure_bits m.ancestors (((top + 1) * Bitset.bits_per_word) - 1);
  let dw = Bitset.words m.ancestors in
  let changed = ref false in
  for w = 0 to top do
    let s = sw.(w) in
    if s <> 0 then begin
      let d = dw.(w) in
      let fresh = s land lnot d in
      if fresh <> 0 then begin
        changed := true;
        dw.(w) <- d lor s;
        mirror_descendants t ~m_slot:m.slot fresh (w * Bitset.bits_per_word)
      end
    end
  done;
  !changed

(* Close the ancestor sets under a new edge src -> dst: push
   {src} ∪ ancestors(src) into dst and, transitively, into everything dst
   reaches, stopping as soon as a set stops changing. *)
let rec push_closure t (src : node) (m : node) =
  let changed =
    if Bitset.add m.ancestors src.slot then begin
      Bitset.set src.descendants m.slot;
      true
    end
    else false
  in
  let changed = union_ancestors t ~src:src.ancestors ~m || changed in
  if changed then
    for i = 0 to Vec.length m.out - 1 do
      let d = Vec.unsafe_get t.slots (Vec.unsafe_get m.out i).dst_slot in
      if d.live then push_closure t src d
    done

let find_out_index (n : node) dst_slot =
  let len = Vec.length n.out in
  let rec go i =
    if i >= len then -1
    else if (Vec.unsafe_get n.out i).dst_slot = dst_slot then i
    else go (i + 1)
  in
  go 0

let add_edge_diag t ~src ~src_ts ~dst ~dst_ts ~diag_op ~diag_index =
  if src.slot = dst.slot then `Self
  else if Bitset.mem src.ancestors dst.slot then
    (* [dst ⇒* src] already holds; the new edge would close a cycle. *)
    `Cycle
  else begin
    let i = find_out_index src dst.slot in
    if i >= 0 then begin
      (* ⊕ keeps one edge per node pair: replace the timestamps. *)
      let e = Vec.unsafe_get src.out i in
      e.tail_ts <- src_ts;
      e.head_ts <- dst_ts;
      match diag_op with
      | Some _ ->
        e.diag_op <- diag_op;
        e.diag_index <- diag_index
      | None -> ()
    end
    else begin
      Vec.push src.out
        {
          dst_slot = dst.slot;
          tail_ts = src_ts;
          head_ts = dst_ts;
          diag_op;
          diag_index;
        };
      dst.refcount <- dst.refcount + 1
    end;
    push_closure t src dst;
    `Ok
  end

let add_edge t ~src ~src_ts ~dst ~dst_ts ?diag () =
  let diag_op = Option.map fst diag in
  let diag_index = match diag with Some (_, i) -> i | None -> -1 in
  add_edge_diag t ~src ~src_ts ~dst ~dst_ts ~diag_op ~diag_index

(* A rejected edge builds no [Some op]: on a violation-dense stream most
   calls close a cycle. *)
let add_edge_op t ~src ~src_ts ~dst ~dst_ts ~op ~index =
  if Bitset.mem src.ancestors dst.slot then `Cycle
  else
    add_edge_diag t ~src ~src_ts ~dst ~dst_ts ~diag_op:(Some op)
      ~diag_index:index

let live_count t = t.live_count
let allocated t = Stats.total_increments t.counter
let max_alive t = Stats.high_water t.counter
let clear_work t = t.clear_work

(* --- Introspection for tests ---------------------------------------------- *)

let live_slots t =
  let acc = ref [] in
  Vec.iter (fun n -> if n.live then acc := n.slot :: !acc) t.slots;
  List.rev !acc

let node_of_slot t s =
  if s < Vec.length t.slots then begin
    let n = Vec.get t.slots s in
    if n.live then Some n else None
  end
  else None

let out_slots n = List.map (fun (e : edge) -> e.dst_slot) (Vec.to_list n.out)

let ancestor_slots n = Bitset.to_list n.ancestors
let descendant_slots n = Bitset.to_list n.descendants
