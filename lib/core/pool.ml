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

type cycle = {
  path : (node * edge * node) list;
  closing_tail_ts : int;
  closing_head_ts : int;
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
  visited : Bitset.t;  (** scratch for [find_path] *)
}

let create () =
  {
    slots = Vec.create ();
    free = Array.make 16 0;
    nfree = 0;
    live_count = 0;
    counter = Stats.counter ();
    clear_work = 0;
    visited = Bitset.create ();
  }

let slot n = n.slot
let is_live n = n.live
let is_active n = n.active
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

let fresh_ts n =
  let ts = n.next_ts in
  n.next_ts <- ts + 1;
  ts

let step_of n ~ts = Step.make_unchecked ~slot:n.slot ~ts

let step_live t s =
  (not (Step.is_bottom s))
  &&
  let sl = Step.slot_unchecked s in
  sl < Vec.length t.slots
  &&
  let n = Vec.unsafe_get t.slots sl in
  n.live && Step.ts_unchecked s > n.collected_upto

let node_of_step t s = Vec.unsafe_get t.slots (Step.slot_unchecked s)
let node_at t slot = Vec.unsafe_get t.slots slot

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

let find_path t ~src:from_node ~dst:to_node =
  (* DFS over live out-edges from [from_node] to [to_node]. *)
  Bitset.reset t.visited;
  let rec go n =
    if Bitset.mem t.visited n.slot then None
    else begin
      Bitset.set t.visited n.slot;
      let result = ref None in
      (try
         for i = 0 to Vec.length n.out - 1 do
           let e = Vec.unsafe_get n.out i in
           let dst = Vec.unsafe_get t.slots e.dst_slot in
           if dst.live then
             if dst.slot = to_node.slot then begin
               result := Some [ (n, e, dst) ];
               raise Exit
             end
             else begin
               match go dst with
               | Some rest ->
                 result := Some ((n, e, dst) :: rest);
                 raise Exit
               | None -> ()
             end
         done
       with Exit -> ());
      !result
    end
  in
  go from_node

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
  else if Bitset.mem src.ancestors dst.slot then begin
    (* [dst ⇒* src] already holds; the new edge would close a cycle. *)
    match find_path t ~src:dst ~dst:src with
    | Some path ->
      `Cycle { path; closing_tail_ts = src_ts; closing_head_ts = dst_ts }
    | None ->
      (* The ancestor invariant guarantees a live path exists. *)
      assert false
  end
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

let add_edge_op t ~src ~src_ts ~dst ~dst_ts ~op ~index =
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
