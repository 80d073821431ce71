open Velodrome_trace
open Velodrome_trace.Ids
open Velodrome_analysis
open Velodrome_util

(* Node ids are never reused; collected ids join [dead], and references
   from the weak components (L, U, R, W) are treated as ⊥ on sight. *)
type t = {
  names : Names.t;
  mutable next_node : int;
  succ : (int, (int, unit) Hashtbl.t) Hashtbl.t;  (** live adjacency *)
  indegree : (int, int) Hashtbl.t;
  finished : (int, unit) Hashtbl.t;  (** live but no longer current *)
  labels : (int, int) Hashtbl.t;  (** node -> label id, -1 for unary *)
  c : (int, int) Hashtbl.t;  (** tid -> current node *)
  depth : (int, int) Hashtbl.t;  (** tid -> open block nesting *)
  l : (int, int) Hashtbl.t;  (** tid -> last node *)
  u : (int, int) Hashtbl.t;  (** lock -> last releasing node *)
  r : (int * int, int) Hashtbl.t;  (** (var, tid) -> last reading node *)
  w : (int, int) Hashtbl.t;  (** var -> last writing node *)
  counter : Stats.counter;
  mutable cycles : int;
  mutable first_error : int option;
  mutable warnings_rev : Warning.t list;
  reported : (int, unit) Hashtbl.t;  (** label ids already reported *)
}

let create names =
  {
    names;
    next_node = 0;
    succ = Hashtbl.create 64;
    indegree = Hashtbl.create 64;
    finished = Hashtbl.create 64;
    labels = Hashtbl.create 64;
    c = Hashtbl.create 8;
    depth = Hashtbl.create 8;
    l = Hashtbl.create 8;
    u = Hashtbl.create 8;
    r = Hashtbl.create 64;
    w = Hashtbl.create 64;
    counter = Stats.counter ();
    cycles = 0;
    first_error = None;
    warnings_rev = [];
    reported = Hashtbl.create 8;
  }

let live t n = Hashtbl.mem t.succ n

let alloc t label =
  let n = t.next_node in
  t.next_node <- n + 1;
  Hashtbl.replace t.succ n (Hashtbl.create 4);
  Hashtbl.replace t.indegree n 0;
  Hashtbl.replace t.labels n label;
  Stats.incr t.counter;
  n

let rec collect t n =
  (match Hashtbl.find_opt t.succ n with
  | None -> ()
  | Some out ->
    Hashtbl.remove t.succ n;
    Hashtbl.remove t.indegree n;
    Hashtbl.remove t.finished n;
    Stats.decr t.counter;
    Hashtbl.iter
      (fun m () ->
        match Hashtbl.find_opt t.indegree m with
        | Some d ->
          Hashtbl.replace t.indegree m (d - 1);
          maybe_collect t m
        | None -> ())
      out)

and maybe_collect t n =
  if
    live t n
    && Hashtbl.mem t.finished n
    && Hashtbl.find_opt t.indegree n = Some 0
  then collect t n

(* Weak read: a reference to a collected node acts as ⊥. *)
let weak t tbl key =
  match Hashtbl.find_opt tbl key with
  | Some n when live t n -> Some n
  | _ -> None

let reaches t src dst =
  let visited = Hashtbl.create 16 in
  let rec go n =
    n = dst
    || (not (Hashtbl.mem visited n))
       && begin
            Hashtbl.replace visited n ();
            match Hashtbl.find_opt t.succ n with
            | None -> false
            | Some out -> Hashtbl.fold (fun m () acc -> acc || go m) out false
          end
  in
  go src

let report t (e : Event.t) current =
  t.cycles <- t.cycles + 1;
  if t.first_error = None then t.first_error <- Some e.Event.index;
  let label_id =
    Option.value ~default:(-1) (Hashtbl.find_opt t.labels current)
  in
  if not (Hashtbl.mem t.reported label_id) then begin
    Hashtbl.replace t.reported label_id ();
    let label = if label_id >= 0 then Some (Label.of_int label_id) else None in
    let message =
      Printf.sprintf "happens-before cycle involving transaction of %s"
        (match label with
        | Some l -> Names.label_name t.names l
        | None -> "a unary transaction")
    in
    t.warnings_rev <-
      Warning.make ~analysis:"velodrome-basic"
        ~kind:Warning.Atomicity_violation ~tid:(Op.tid e.Event.op) ?label
        ~index:e.Event.index message
      :: t.warnings_rev
  end

(* Add edge [src -> dst] unless it is a self-edge or would close a cycle;
   in the latter case report and drop it, keeping the graph acyclic. *)
let add_edge t (e : Event.t) src dst =
  if src <> dst && live t src && live t dst then begin
    let out = Hashtbl.find t.succ src in
    if not (Hashtbl.mem out dst) then begin
      if reaches t dst src then report t e dst
      else begin
        Hashtbl.replace out dst ();
        Hashtbl.replace t.indegree dst
          (Option.value ~default:0 (Hashtbl.find_opt t.indegree dst) + 1)
      end
    end
  end

let tid_of e = Tid.to_int (Op.tid e.Event.op)

let enter t (e : Event.t) label =
  let ti = tid_of e in
  let n = alloc t label in
  (match weak t t.l ti with
  | Some prev -> add_edge t e prev n
  | None -> ());
  Hashtbl.replace t.c ti n;
  n

let exit t (e : Event.t) =
  let ti = tid_of e in
  match Hashtbl.find_opt t.c ti with
  | Some n ->
    Hashtbl.remove t.c ti;
    Hashtbl.replace t.l ti n;
    Hashtbl.replace t.finished n ();
    maybe_collect t n
  | None -> ()

let do_acquire t (e : Event.t) n m =
  match weak t t.u (Lock.to_int m) with
  | Some last -> add_edge t e last n
  | None -> ()

let do_release t n m = Hashtbl.replace t.u (Lock.to_int m) n

let do_read t (e : Event.t) n x =
  let xi = Var.to_int x in
  (match weak t t.w xi with
  | Some last -> add_edge t e last n
  | None -> ());
  Hashtbl.replace t.r (xi, tid_of e) n

let do_write t (e : Event.t) n x =
  let xi = Var.to_int x in
  Hashtbl.iter
    (fun (x', _) reader -> if x' = xi && live t reader then add_edge t e reader n)
    t.r;
  (match weak t t.w xi with
  | Some last -> add_edge t e last n
  | None -> ());
  Hashtbl.replace t.w xi n

let on_event t (e : Event.t) =
  let ti = tid_of e in
  let dep = Option.value ~default:0 (Hashtbl.find_opt t.depth ti) in
  match e.Event.op with
  | Op.Begin (_, l) ->
    Hashtbl.replace t.depth ti (dep + 1);
    if dep = 0 then ignore (enter t e (Label.to_int l))
  | Op.End _ ->
    if dep > 0 then begin
      Hashtbl.replace t.depth ti (dep - 1);
      if dep = 1 then exit t e
    end
  | Op.Acquire (_, m) -> (
    match Hashtbl.find_opt t.c ti with
    | Some n -> do_acquire t e n m
    | None ->
      (* [INS OUTSIDE]: fresh unary transaction around the operation. *)
      let n = enter t e (-1) in
      do_acquire t e n m;
      exit t e)
  | Op.Release (_, m) -> (
    match Hashtbl.find_opt t.c ti with
    | Some n -> do_release t n m
    | None ->
      let n = enter t e (-1) in
      do_release t n m;
      exit t e)
  | Op.Read (_, x) -> (
    match Hashtbl.find_opt t.c ti with
    | Some n -> do_read t e n x
    | None ->
      let n = enter t e (-1) in
      do_read t e n x;
      exit t e)
  | Op.Write (_, x) -> (
    match Hashtbl.find_opt t.c ti with
    | Some n -> do_write t e n x
    | None ->
      let n = enter t e (-1) in
      do_write t e n x;
      exit t e)

let finish _ = ()
let warnings t = List.rev t.warnings_rev
let has_error t = t.cycles > 0
let cycles_found t = t.cycles
let first_error_index t = t.first_error
let nodes_allocated t = Stats.total_increments t.counter
let nodes_max_alive t = Stats.high_water t.counter

let backend () : (module Backend.S) =
  (module struct
    type nonrec t = t

    let name = "velodrome-basic"
    let create = create
    let on_event = on_event
    let pause_hint _ _ = false
    let finish = finish
    let warnings = warnings
  end)
