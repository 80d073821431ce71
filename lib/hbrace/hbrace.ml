open Velodrome_util
open Velodrome_trace
open Velodrome_trace.Ids
open Velodrome_analysis

type var_clocks = { reads : Vclock.t; writes : Vclock.t }

type t = {
  names : Names.t;
  threads : (int, Vclock.t) Hashtbl.t;
  locks : (int, Vclock.t) Hashtbl.t;
  vars : (int, var_clocks) Hashtbl.t;
  mutable warnings_rev : Warning.t list;
  reported : (int, unit) Hashtbl.t;
}

let name = "hb"

let create names =
  {
    names;
    threads = Hashtbl.create 8;
    locks = Hashtbl.create 16;
    vars = Hashtbl.create 64;
    warnings_rev = [];
    reported = Hashtbl.create 8;
  }

let thread_clock t ti =
  match Hashtbl.find_opt t.threads ti with
  | Some c -> c
  | None ->
    let c = Vclock.create () in
    (* Each thread starts at epoch 1 of itself so that its own accesses
       are ordered after thread creation. *)
    Vclock.set c ti 1;
    Hashtbl.replace t.threads ti c;
    c

let var_clocks t x =
  match Hashtbl.find_opt t.vars x with
  | Some vc -> vc
  | None ->
    let vc = { reads = Vclock.create (); writes = Vclock.create () } in
    Hashtbl.replace t.vars x vc;
    vc

let report t (e : Event.t) x ~kind_str =
  if not (Hashtbl.mem t.reported x) then begin
    Hashtbl.replace t.reported x ();
    let var = Var.of_int x in
    let message =
      Printf.sprintf "%s race on %s: access not ordered by happens-before"
        kind_str
        (Names.var_name t.names var)
    in
    t.warnings_rev <-
      Warning.make ~analysis:name ~kind:Warning.Race ~tid:(Op.tid e.Event.op)
        ~var ~index:e.Event.index message
      :: t.warnings_rev
  end

let on_event t (e : Event.t) =
  match e.Event.op with
  | Op.Acquire (u, m) ->
    let c = thread_clock t (Tid.to_int u) in
    (match Hashtbl.find_opt t.locks (Lock.to_int m) with
    | Some lm -> Vclock.join c lm
    | None -> ())
  | Op.Release (u, m) ->
    let ti = Tid.to_int u in
    let c = thread_clock t ti in
    Hashtbl.replace t.locks (Lock.to_int m) (Vclock.copy c);
    Vclock.incr c ti
  | Op.Read (u, x) ->
    let xv = Var.to_int x in
    if not (Names.is_volatile t.names x) then begin
      let ti = Tid.to_int u in
      let c = thread_clock t ti in
      let vc = var_clocks t xv in
      (* Read races with a write unordered before it. *)
      if not (Vclock.leq vc.writes c) then report t e xv ~kind_str:"read-write";
      Vclock.set vc.reads ti (Vclock.get c ti)
    end
  | Op.Write (u, x) ->
    let xv = Var.to_int x in
    if not (Names.is_volatile t.names x) then begin
      let ti = Tid.to_int u in
      let c = thread_clock t ti in
      let vc = var_clocks t xv in
      if not (Vclock.leq vc.writes c) then report t e xv ~kind_str:"write-write"
      else if not (Vclock.leq vc.reads c) then report t e xv ~kind_str:"read-write";
      Vclock.set vc.writes ti (Vclock.get c ti)
    end
  | Op.Begin _ | Op.End _ -> ()

let finish _ = ()
let warnings t = List.rev t.warnings_rev

let backend () : (module Backend.S) =
  (module struct
    type nonrec t = t

    let name = name
    let create = create
    let on_event = on_event
    let pause_hint _ _ = false
    let finish = finish
    let warnings = warnings
  end)
