open Velodrome_trace
open Velodrome_trace.Ids
open Velodrome_analysis
open Velodrome_util

(* The open-block stack lives in a pair of parallel int arrays (label,
   begin timestamp; index 0 = outermost) so Begin/End never cons. The
   current transaction is its node's slot, -1 outside any: an int field
   is set without an option or the write barrier. *)
type thread_state = {
  mutable cur : int;
  mutable stk_labels : int array;
  mutable stk_ts : int array;
  mutable depth : int;
  mutable l : Step.t;
}

(* Per-variable last-read steps, keyed by thread id in a small pair of
   parallel arrays (thread counts are tiny; linear search beats hashing
   and never allocates on lookup). Entries stay in first-touch order for
   the variable's lifetime: a write adds its edges in this order, and the
   first edge to close a cycle decides the reported path. A stale step
   is overwritten with ⊥ in place, never removed. *)
type var_state = {
  mutable w : Step.t;
  mutable read_tids : int array;
  mutable read_steps : Step.t array;
  mutable nreads : int;
}

type t = {
  names : Names.t;
  pool : Pool.t;
  threads : thread_state Vec.t;  (** dense, indexed by interned tid *)
  locks : Step.t Vec.t;  (** dense, indexed by interned lock id *)
  vars : var_state Vec.t;  (** dense, indexed by interned var id *)
  mutable warnings_rev : Warning.t list;
  blamed_keys : Bitset.t;  (** labels already reported as blamed *)
  unblamed_keys : Bitset.t;  (** labels already reported unblamed *)
  mutable cycles : int;
  mutable first_error : int option;
  mutable ev_cycle : bool;
      (** the current event rejected an edge. One event may reject several
          (e.g. a write conflicting with both the recorded reads and the
          recorded write), and blame prefers the first increasing cycle
          among them, else the first cycle. *)
  mutable ev_increasing : bool;  (** [chosen] is increasing: search no more *)
  mutable chosen : Pool.path;  (** the current event's reported path *)
  mutable spare : Pool.path;  (** where the event's later cycles are searched *)
  mutable mbuf : Step.t array;  (** merge scratch: live predecessor steps *)
  mutable mlen : int;
}

let create names =
  {
    names;
    pool = Pool.create ();
    threads = Vec.create ();
    locks = Vec.create ();
    vars = Vec.create ();
    warnings_rev = [];
    blamed_keys = Bitset.create ();
    unblamed_keys = Bitset.create ();
    cycles = 0;
    first_error = None;
    ev_cycle = false;
    ev_increasing = false;
    chosen = Pool.create_path ();
    spare = Pool.create_path ();
    mbuf = Array.make 8 Step.bottom;
    mlen = 0;
  }

let fresh_thread () =
  {
    cur = -1;
    stk_labels = Array.make 8 (-1);
    stk_ts = Array.make 8 0;
    depth = 0;
    l = Step.bottom;
  }

let thread t tid =
  let k = Tid.to_int tid in
  while Vec.length t.threads <= k do
    Vec.push t.threads (fresh_thread ())
  done;
  Vec.unsafe_get t.threads k

let fresh_var () =
  { w = Step.bottom; read_tids = [||]; read_steps = [||]; nreads = 0 }

let var_state t x =
  let k = Var.to_int x in
  while Vec.length t.vars <= k do
    Vec.push t.vars (fresh_var ())
  done;
  Vec.unsafe_get t.vars k

let lock_step t m =
  let k = Lock.to_int m in
  if k < Vec.length t.locks then Vec.unsafe_get t.locks k else Step.bottom

let set_lock_step t m s =
  let k = Lock.to_int m in
  while Vec.length t.locks <= k do
    Vec.push t.locks Step.bottom
  done;
  Vec.set t.locks k s

let rec find_read vs tid i =
  if i >= vs.nreads then -1
  else if Array.unsafe_get vs.read_tids i = tid then i
  else find_read vs tid (i + 1)

(* Record tid's last read of the variable; replaces in place, growing the
   arrays only the first time a thread touches the variable. The search
   is a top-level function, so a call builds no closure. *)
let set_read vs tid s =
  let i = find_read vs tid 0 in
  if i >= 0 then Array.unsafe_set vs.read_steps i s
  else begin
    if vs.nreads = Array.length vs.read_tids then begin
      let cap = max 4 (2 * vs.nreads) in
      let nt = Array.make cap (-1) in
      let ns = Array.make cap Step.bottom in
      Array.blit vs.read_tids 0 nt 0 vs.nreads;
      Array.blit vs.read_steps 0 ns 0 vs.nreads;
      vs.read_tids <- nt;
      vs.read_steps <- ns
    end;
    vs.read_tids.(vs.nreads) <- tid;
    vs.read_steps.(vs.nreads) <- s;
    vs.nreads <- vs.nreads + 1
  end

let stack_push st label ts =
  let cap = Array.length st.stk_labels in
  if st.depth = cap then begin
    let nl = Array.make (2 * cap) (-1) in
    let nt = Array.make (2 * cap) 0 in
    Array.blit st.stk_labels 0 nl 0 cap;
    Array.blit st.stk_ts 0 nt 0 cap;
    st.stk_labels <- nl;
    st.stk_ts <- nt
  end;
  Array.unsafe_set st.stk_labels st.depth label;
  Array.unsafe_set st.stk_ts st.depth ts;
  st.depth <- st.depth + 1

(* --- Error reporting --------------------------------------------------- *)

(* A detected cycle stays in a path buffer while it is evaluated: blame
   reads the path's edges and the stack arrays in place, and only a key not
   seen before builds lists, a graph and a warning. A report's key is the
   label it is attributed to, blamed or not, and depends on the path only
   through blame. *)

(* A cycle [v -> n1 -> ... -> u -> v] is increasing when every node other
   than v enters on a timestamp no later than it leaves on (Section 4.3).
   The path runs v ⇒* u; the closing edge u -> v leaves u at
   [closing_tail_ts]. *)
let rec increasing_from pool p ~closing_tail_ts i =
  let head_ts = (Pool.path_edge pool p i).Pool.head_ts in
  if i = Pool.path_length p - 1 then head_ts <= closing_tail_ts
  else
    head_ts <= (Pool.path_edge pool p (i + 1)).Pool.tail_ts
    && increasing_from pool p ~closing_tail_ts (i + 1)

(* An open block is refuted by an increasing cycle when it began no later
   than the root operation, the one at which the current transaction's
   edge on the cycle leaves it. Index 0 is the outermost block. *)
let refutes st ~root_ts i = Array.unsafe_get st.stk_ts i <= root_ts

let rec first_refuted st ~root_ts i =
  if i >= st.depth then -1
  else if refutes st ~root_ts i then i
  else first_refuted st ~root_ts (i + 1)

(* The refuted labels, outermost first. *)
let rec refuted_labels st ~root_ts i acc =
  if i < 0 then acc
  else
    refuted_labels st ~root_ts (i - 1)
      (if refutes st ~root_ts i then Label.of_int st.stk_labels.(i) :: acc
       else acc)

(* Whether any cycle into [st]'s transaction could still make a report:
   blame picks one of the open labels, and an unblamed report takes the
   outermost. When none can, the cycle is only counted and its path is
   never searched. *)
let rec all_blamed t st i =
  i >= st.depth
  || Bitset.mem t.blamed_keys (Array.unsafe_get st.stk_labels i)
     && all_blamed t st (i + 1)

let can_report t st =
  not
    (Bitset.mem t.unblamed_keys (Array.unsafe_get st.stk_labels 0)
    && all_blamed t st 0)

let graph_of_path t p ~closing_op ~blamed_slot =
  let len = Pool.path_length p in
  let nodes =
    List.init (len + 1) (fun i ->
        let slot = Pool.path_slot p i in
        let n = Pool.node_at t.pool slot in
        {
          Error_graph.id = slot;
          tid = Pool.diag_tid n;
          label = Pool.diag_label n;
          blamed = slot = blamed_slot;
        })
  in
  (* The path's edges, then the closing edge back to node 0. *)
  let edges =
    List.init (len + 1) (fun i ->
        if i = len then
          {
            Error_graph.src = Pool.path_slot p len;
            dst = Pool.path_slot p 0;
            op = Some closing_op;
            closing = true;
          }
        else
          {
            Error_graph.src = Pool.path_slot p i;
            dst = Pool.path_slot p (i + 1);
            op = (Pool.path_edge t.pool p i).Pool.diag_op;
            closing = false;
          })
  in
  { Error_graph.nodes; edges }

(* Report the cycle an event closed, once per key: one per blamed label
   (the outermost refuted block; inner refuted blocks are mentioned,
   deeper non-refuted ones stay silent), and one per label for unblamed
   cycles. *)
let emit_cycle_warning t st (e : Event.t) p ~increasing =
  let root_ts = (Pool.path_edge t.pool p 0).Pool.tail_ts in
  let outermost = if increasing then first_refuted st ~root_ts 0 else -1 in
  let blamed = outermost >= 0 in
  (* Unblamed: attribute the report to the current outermost block so the
     user can find it, but mark it unblamed. A cycle closes only on an edge
     into an open transaction, so that block exists. *)
  let primary = st.stk_labels.(if blamed then outermost else 0) in
  if Bitset.add (if blamed then t.blamed_keys else t.unblamed_keys) primary
  then begin
    let refuted =
      if blamed then refuted_labels st ~root_ts (st.depth - 1) [] else []
    in
    let blamed_slot = if blamed then st.cur else -1 in
    (* The cycle stays data; Warning.message and the CLI's dot export
       render it only for the warnings that get printed. *)
    let cycle = graph_of_path t p ~closing_op:e.Event.op ~blamed_slot in
    let verdict =
      if blamed then
        Printf.sprintf "not self-serializable (refuted blocks: %s)"
          (String.concat ", " (List.map (Names.label_name t.names) refuted))
      else "non-serializable trace (no single transaction blamed)"
    in
    let warning =
      Warning.make
        ~analysis:"velodrome"
        ~kind:Warning.Atomicity_violation ~tid:(Op.tid e.Event.op)
        ~label:(Label.of_int primary)
        ~cycle ~blamed ~refuted ~index:e.Event.index verdict
    in
    t.warnings_rev <- warning :: t.warnings_rev
  end

(* The edge [src -> dst] was rejected: [dst ⇒* src] holds. Search the path
   only while the event has no increasing cycle yet and could still report;
   the first path stays in [chosen] as the fallback, and a later increasing
   one replaces it. *)
let on_cycle t st ~src ~src_ts ~dst =
  if (not t.ev_increasing) && can_report t st then begin
    let p = if t.ev_cycle then t.spare else t.chosen in
    Pool.find_path t.pool p ~from:dst ~to_:src;
    if increasing_from t.pool p ~closing_tail_ts:src_ts 0 then begin
      t.ev_increasing <- true;
      if p != t.chosen then begin
        t.spare <- t.chosen;
        t.chosen <- p
      end
    end
  end;
  t.ev_cycle <- true

let flush_cycle t st (e : Event.t) =
  t.ev_cycle <- false;
  t.cycles <- t.cycles + 1;
  if t.first_error = None then t.first_error <- Some e.Event.index;
  if can_report t st then
    emit_cycle_warning t st e t.chosen ~increasing:t.ev_increasing;
  t.ev_increasing <- false

(* --- Edges -------------------------------------------------------------- *)

(* Add an edge from a live recorded step to the current transaction's new
   step; note a cycle if one would form. A step of [dst] itself is a
   self-edge, which the pool would filter: return before building the
   edge's diagnostic operation. *)
let edge_from_live t st ~src ~dst ~dst_ts (e : Event.t) =
  if Step.slot_unchecked src <> Pool.slot dst then begin
    let src_node = Pool.node_of_step t.pool src in
    let src_ts = Step.ts_unchecked src in
    match
      Pool.add_edge_op t.pool ~src:src_node ~src_ts ~dst ~dst_ts
        ~op:e.Event.op ~index:e.Event.index
    with
    | `Ok | `Self -> ()
    | `Cycle -> on_cycle t st ~src:src_node ~src_ts ~dst
  end

(* Stale and ⊥ steps contribute nothing. *)
let edge_from t st ~src ~dst ~dst_ts e =
  if Pool.step_live t.pool src then edge_from_live t st ~src ~dst ~dst_ts e

(* --- Merge (Figure 4) --------------------------------------------------- *)

(* The merge arguments accumulate in [t.mbuf] (already filtered to live
   steps), so no per-event list is built. *)
let merge_reset t = t.mlen <- 0

let merge_add t s =
  if Pool.step_live t.pool s then begin
    if t.mlen = Array.length t.mbuf then begin
      let nb = Array.make (2 * t.mlen) Step.bottom in
      Array.blit t.mbuf 0 nb 0 t.mlen;
      t.mbuf <- nb
    end;
    Array.unsafe_set t.mbuf t.mlen s;
    t.mlen <- t.mlen + 1
  end

let rec happens_after_all t nj i =
  i >= t.mlen
  || (Pool.happens_before_or_eq t.pool
        (Pool.node_of_step t.pool (Array.unsafe_get t.mbuf i))
        nj
     && happens_after_all t nj (i + 1))

(* A representative must already happen-after every argument AND be
   finished: an active transaction can still perform conflicting
   operations, and absorbing the unary op into it would turn the
   resulting cycle edges into self-edges. *)
let rec find_rep t j =
  if j >= t.mlen then -1
  else
    let nj = Pool.node_of_step t.pool (Array.unsafe_get t.mbuf j) in
    if (not (Pool.is_active nj)) && happens_after_all t nj 0 then j
    else find_rep t (j + 1)

let merge_finish t (e : Event.t) =
  if t.mlen = 0 then Step.bottom
  else begin
    let rep = find_rep t 0 in
    if rep >= 0 then t.mbuf.(rep)
    else begin
      let n =
        Pool.alloc t.pool ~tid:(Tid.to_int (Op.tid e.Event.op)) ~label:(-1)
      in
      let ts = Pool.fresh_ts n in
      for i = 0 to t.mlen - 1 do
        let s = Array.unsafe_get t.mbuf i in
        match
          Pool.add_edge_op t.pool
            ~src:(Pool.node_of_step t.pool s)
            ~src_ts:(Step.ts_unchecked s) ~dst:n ~dst_ts:ts ~op:e.Event.op
            ~index:e.Event.index
        with
        | `Ok | `Self -> ()
        | `Cycle ->
          (* Impossible: [n] is fresh and has no outgoing edges. *)
          assert false
      done;
      Pool.sweep t.pool n;
      Pool.step_of n ~ts
    end
  end

(* [L(t)+1] for a thread outside any transaction: mint the next timestamp
   in whatever node its last step belongs to; ⊥ stays ⊥. *)
let l_plus_one t st =
  if Pool.step_live t.pool st.l then begin
    let n = Pool.node_of_step t.pool st.l in
    Pool.step_of n ~ts:(Pool.fresh_ts n)
  end
  else Step.bottom

(* --- Inside-transaction step -------------------------------------------- *)

let inside_step st n =
  let ts = Pool.fresh_ts n in
  st.l <- Pool.step_of n ~ts;
  ts

(* --- Event dispatch ------------------------------------------------------ *)

let do_acquire t st n (e : Event.t) m =
  let ts = inside_step st n in
  edge_from t st ~src:(lock_step t m) ~dst:n ~dst_ts:ts e

let do_release t st n m =
  ignore (inside_step st n);
  set_lock_step t m st.l

let do_read t st n (e : Event.t) x =
  let vs = var_state t x in
  let ts = inside_step st n in
  edge_from t st ~src:vs.w ~dst:n ~dst_ts:ts e;
  set_read vs (Tid.to_int (Op.tid e.Event.op)) st.l

(* A read step found stale becomes ⊥ in its entry: it can never be live
   again (its slot's watermark only rises), and later writes then skip it
   with one comparison instead of a pool lookup. *)
let do_write t st n (e : Event.t) x =
  let vs = var_state t x in
  let ts = inside_step st n in
  let steps = vs.read_steps in
  for i = 0 to vs.nreads - 1 do
    let s = Array.unsafe_get steps i in
    if not (Step.is_bottom s) then
      if Pool.step_live t.pool s then
        edge_from_live t st ~src:s ~dst:n ~dst_ts:ts e
      else Array.unsafe_set steps i Step.bottom
  done;
  edge_from t st ~src:vs.w ~dst:n ~dst_ts:ts e;
  vs.w <- st.l

let dispatch t st (e : Event.t) =
  let op = e.Event.op in
  match op with
  | Op.Begin (tid, l) ->
    if st.cur < 0 then begin
      (* [INS2 ENTER] *)
      let n =
        Pool.alloc t.pool ~tid:(Tid.to_int tid) ~label:(Label.to_int l)
      in
      Pool.set_active t.pool n true;
      let ts = Pool.fresh_ts n in
      edge_from t st ~src:st.l ~dst:n ~dst_ts:ts e;
      st.cur <- Pool.slot n;
      st.depth <- 0;
      stack_push st (Label.to_int l) ts;
      st.l <- Pool.step_of n ~ts
    end
    else begin
      (* [INS2 RE-ENTER]: same node; the L(t) edge is a self-edge. *)
      let ts = inside_step st (Pool.node_at t.pool st.cur) in
      stack_push st (Label.to_int l) ts
    end
  | Op.End _ ->
    (* An [End] without [Begin] is ill-formed. The CLI and [serve] never
       get here — their driver rejects the event first
       ({!Velodrome_trace.Trace.Checker}) — so only a direct caller
       feeding an unchecked trace does; ignore it. *)
    if st.cur >= 0 && st.depth > 0 then begin
      let n = Pool.node_at t.pool st.cur in
      ignore (inside_step st n);
      st.depth <- st.depth - 1;
      if st.depth = 0 then begin
        st.cur <- -1;
        Pool.set_active t.pool n false
      end
    end
  | Op.Acquire (_, m) ->
    if st.cur >= 0 then do_acquire t st (Pool.node_at t.pool st.cur) e m
    else begin
      (* [INS2 OUTSIDE ACQUIRE] *)
      merge_reset t;
      merge_add t st.l;
      merge_add t (lock_step t m);
      st.l <- merge_finish t e
    end
  | Op.Release (_, m) ->
    if st.cur >= 0 then do_release t st (Pool.node_at t.pool st.cur) m
    else begin
      (* [INS2 OUTSIDE RELEASE] *)
      let s = l_plus_one t st in
      st.l <- s;
      set_lock_step t m s
    end
  | Op.Read (tid, x) ->
    if st.cur >= 0 then do_read t st (Pool.node_at t.pool st.cur) e x
    else begin
      (* [INS2 OUTSIDE READ] *)
      let vs = var_state t x in
      merge_reset t;
      merge_add t st.l;
      merge_add t vs.w;
      let s = merge_finish t e in
      st.l <- s;
      set_read vs (Tid.to_int tid) s
    end
  | Op.Write (_, x) ->
    if st.cur >= 0 then do_write t st (Pool.node_at t.pool st.cur) e x
    else begin
      (* [INS2 OUTSIDE WRITE] *)
      let vs = var_state t x in
      merge_reset t;
      merge_add t st.l;
      merge_add t vs.w;
      for i = 0 to vs.nreads - 1 do
        merge_add t (Array.unsafe_get vs.read_steps i)
      done;
      let s = merge_finish t e in
      st.l <- s;
      vs.w <- s
    end

let on_event t (e : Event.t) =
  let st = thread t (Op.tid e.Event.op) in
  dispatch t st e;
  if t.ev_cycle then flush_cycle t st e

let finish _ = ()

let warnings t = List.rev t.warnings_rev
let has_error t = t.cycles > 0
let cycles_found t = t.cycles
let first_error_index t = t.first_error
let nodes_allocated t = Pool.allocated t.pool
let nodes_max_alive t = Pool.max_alive t.pool
let nodes_live t = Pool.live_count t.pool
let debug_pool t = t.pool

let backend () : (module Backend.S) =
  (module struct
    type nonrec t = t

    let name = "velodrome"
    let create = create
    let on_event = on_event
    let pause_hint _ _ = false
    let finish = finish
    let warnings = warnings
  end)
