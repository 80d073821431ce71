open Velodrome_trace
open Velodrome_trace.Ids

(* Each instruction carries the structural path of its statement, matching
   [Cfg.site]: the j-th top-level statement is [j]; an atomic body statement
   extends the atomic's own path; [If] branches extend with 0/1; [While]
   bodies reuse the loop's path. [End_atomic] carries the atomic's path,
   mirroring the [Cfg] exit node which sits at the atomic's own site. *)
type instr = S of int list * Ast.stmt | End_atomic of int list

type status = Runnable | Blocked of Lock.t | Finished

type obs = { o_thread : int; o_path : int list; o_value : int option }

exception Runtime_error of string

type thread = {
  id : int;
  regs : int array;
  mutable pc : instr list;
  mutable st : status;
  mutable work_left : int;
  held : (int, int) Hashtbl.t;  (** lock -> re-entrancy depth *)
}

type t = {
  emit_reentrant : bool;
  observe : obs -> unit;
  memory : int array;
  owner : (int, int) Hashtbl.t;  (** lock -> owning thread *)
  threads : thread array;
}

let silent_budget = 1024
let no_obs (_ : obs) = ()

let create ?(emit_reentrant = false) ?(observe = no_obs) (p : Ast.program) =
  let memory = Array.make (max 1 p.Ast.var_count) 0 in
  List.iter (fun (x, v) -> memory.(Var.to_int x) <- v) p.Ast.init;
  let threads =
    Array.mapi
      (fun id body ->
        let regs = Array.make 256 0 in
        regs.(Ast.tid_reg) <- id;
        {
          id;
          regs;
          pc = List.mapi (fun j s -> S ([ j ], s)) body;
          st = Runnable;
          work_left = 0;
          held = Hashtbl.create 4;
        })
      p.Ast.threads
  in
  { emit_reentrant; observe; memory; owner = Hashtbl.create 8; threads }

let thread_count t = Array.length t.threads
let status t i = t.threads.(i).st

let set_reg th r v = if r < Array.length th.regs then th.regs.(r) <- v

let held_depth th m =
  Option.value ~default:0 (Hashtbl.find_opt th.held (Lock.to_int m))

(* Fire the observation callback for an executed instruction: the site it
   ran at, plus the concrete value when one exists (register assignment,
   memory read, memory write). Fires at execution time — silent steps in
   [advance], observable ones when [commit] actually performs them — so a
   blocked acquire observes nothing until it finally succeeds. *)
let note t (th : thread) path v =
  t.observe { o_thread = th.id; o_path = path; o_value = v }

(* Run silent instructions; stop at an event-producing head. *)
let rec advance t th budget =
  if budget <= 0 then `Working
  else if th.work_left > 0 then begin
    let spend = min th.work_left budget in
    th.work_left <- th.work_left - spend;
    advance t th (budget - spend)
  end
  else begin
    match th.pc with
    | [] ->
      th.st <- Finished;
      `Finished
    | End_atomic _ :: _ -> `Op (Op.End (Tid.of_int th.id))
    | S (path, s) :: rest -> (
      match s with
      | Ast.Read (_, x) -> `Op (Op.Read (Tid.of_int th.id, x))
      | Ast.Write (x, _) -> `Op (Op.Write (Tid.of_int th.id, x))
      | Ast.Acquire m ->
        if held_depth th m > 0 && not t.emit_reentrant then begin
          (* Re-entrant acquire: silent, as RoadRunner filters it. *)
          Hashtbl.replace th.held (Lock.to_int m) (held_depth th m + 1);
          note t th path None;
          th.pc <- rest;
          advance t th (budget - 1)
        end
        else `Op (Op.Acquire (Tid.of_int th.id, m))
      | Ast.Release m ->
        let d = held_depth th m in
        if d = 0 then
          raise
            (Runtime_error
               (Printf.sprintf "thread %d releases unheld lock %d" th.id
                  (Lock.to_int m)))
        else if d > 1 && not t.emit_reentrant then begin
          Hashtbl.replace th.held (Lock.to_int m) (d - 1);
          note t th path None;
          th.pc <- rest;
          advance t th (budget - 1)
        end
        else `Op (Op.Release (Tid.of_int th.id, m))
      | Ast.Atomic (l, _) -> `Op (Op.Begin (Tid.of_int th.id, l))
      | Ast.Local (r, e) ->
        let v = Ast.eval th.regs e in
        set_reg th r v;
        note t th path (Some v);
        th.pc <- rest;
        advance t th (budget - 1)
      | Ast.If (c, a, b) ->
        let taken = Ast.eval_cond th.regs c in
        let branch = if taken then a else b in
        let arm = if taken then 0 else 1 in
        note t th path None;
        th.pc <-
          List.mapi (fun j s -> S (path @ [ arm; j ], s)) branch @ rest;
        advance t th (budget - 1)
      | Ast.While (c, body) ->
        note t th path None;
        if Ast.eval_cond th.regs c then
          th.pc <- List.mapi (fun j s -> S (path @ [ j ], s)) body @ th.pc
        else th.pc <- rest;
        advance t th (budget - 1)
      | Ast.Work n ->
        note t th path None;
        th.work_left <- max 0 n;
        th.pc <- rest;
        advance t th (budget - 1)
      | Ast.Yield ->
        note t th path None;
        th.pc <- rest;
        `Working)
  end

let peek t i =
  let th = t.threads.(i) in
  match th.st with
  | Finished -> `Finished
  | Blocked m -> `Op (Op.Acquire (Tid.of_int th.id, m))
  | Runnable -> advance t th silent_budget

let commit t i =
  let th = t.threads.(i) in
  let emit op rest =
    th.pc <- rest;
    `Emitted op
  in
  match th.pc with
  | [] -> raise (Runtime_error "commit on finished thread")
  | End_atomic path :: rest ->
    note t th path None;
    emit (Op.End (Tid.of_int th.id)) rest
  | S (path, s) :: rest -> (
    match s with
    | Ast.Read (r, x) ->
      let v = t.memory.(Var.to_int x) in
      set_reg th r v;
      note t th path (Some v);
      emit (Op.Read (Tid.of_int th.id, x)) rest
    | Ast.Write (x, e) ->
      let v = Ast.eval th.regs e in
      t.memory.(Var.to_int x) <- v;
      note t th path (Some v);
      emit (Op.Write (Tid.of_int th.id, x)) rest
    | Ast.Acquire m -> (
      let key = Lock.to_int m in
      match Hashtbl.find_opt t.owner key with
      | Some o when o <> th.id ->
        th.st <- Blocked m;
        `Blocked
      | Some _ ->
        (* Re-entrant acquire reached commit only in emit_reentrant mode. *)
        th.st <- Runnable;
        Hashtbl.replace th.held key (held_depth th m + 1);
        note t th path None;
        emit (Op.Acquire (Tid.of_int th.id, m)) rest
      | None ->
        th.st <- Runnable;
        Hashtbl.replace t.owner key th.id;
        Hashtbl.replace th.held key (held_depth th m + 1);
        note t th path None;
        emit (Op.Acquire (Tid.of_int th.id, m)) rest)
    | Ast.Release m ->
      let key = Lock.to_int m in
      let d = held_depth th m in
      if d <= 1 then begin
        Hashtbl.remove th.held key;
        Hashtbl.remove t.owner key;
        (* Wake every thread blocked on this lock. *)
        Array.iter
          (fun other ->
            match other.st with
            | Blocked m' when Lock.equal m' m -> other.st <- Runnable
            | _ -> ())
          t.threads
      end
      else Hashtbl.replace th.held key (d - 1);
      note t th path None;
      emit (Op.Release (Tid.of_int th.id, m)) rest
    | Ast.Atomic (l, body) ->
      note t th path None;
      th.pc <-
        List.mapi (fun j s -> S (path @ [ j ], s)) body
        @ (End_atomic path :: rest);
      `Emitted (Op.Begin (Tid.of_int th.id, l))
    | Ast.Local _ | Ast.If _ | Ast.While _ | Ast.Work _ | Ast.Yield ->
      raise (Runtime_error "commit on silent instruction"))

let lock_owner t m = Hashtbl.find_opt t.owner (Lock.to_int m)

let pending_path t i =
  match t.threads.(i).pc with
  | [] -> None
  | End_atomic p :: _ | S (p, _) :: _ -> Some p

let read_var t x = t.memory.(Var.to_int x)

let all_finished t =
  Array.for_all (fun th -> th.st = Finished) t.threads
