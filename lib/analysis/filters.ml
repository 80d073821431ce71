open Velodrome_trace
open Velodrome_trace.Ids

let reentrant_locks inner =
  Backend.filter ~suffix:"+reentrant"
    (fun () ->
      let depth : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
      let get k = Option.value ~default:0 (Hashtbl.find_opt depth k) in
      let classify e =
        match e.Event.op with
        | Op.Acquire (t, m) ->
          let k = (Tid.to_int t, Lock.to_int m) in
          `Acq (k, get k)
        | Op.Release (t, m) ->
          let k = (Tid.to_int t, Lock.to_int m) in
          `Rel (k, get k)
        | _ -> `Other
      in
      let would_forward e =
        match classify e with
        | `Acq (_, d) -> d = 0
        | `Rel (_, d) -> d <= 1
        | `Other -> true
      in
      let observe e =
        match classify e with
        | `Acq (k, d) ->
          Hashtbl.replace depth k (d + 1);
          d = 0
        | `Rel (k, d) ->
          Hashtbl.replace depth k (max 0 (d - 1));
          d <= 1
        | `Other -> true
      in
      { Backend.would_forward; observe })
    inner

type ownership = Owned of int | Shared

let thread_local inner =
  Backend.filter ~suffix:"+threadlocal"
    (fun () ->
      let state : (int, ownership) Hashtbl.t = Hashtbl.create 64 in
      let accessor e =
        match e.Event.op with
        | Op.Read (t, x) | Op.Write (t, x) ->
          Some (Tid.to_int t, Var.to_int x)
        | _ -> None
      in
      let would_forward e =
        match accessor e with
        | None -> true
        | Some (t, x) -> (
          match Hashtbl.find_opt state x with
          | None -> false
          | Some (Owned u) -> u <> t
          | Some Shared -> true)
      in
      let observe e =
        match accessor e with
        | None -> true
        | Some (t, x) -> (
          match Hashtbl.find_opt state x with
          | None ->
            Hashtbl.replace state x (Owned t);
            false
          | Some (Owned u) when u = t -> false
          | Some (Owned _) ->
            Hashtbl.replace state x Shared;
            true
          | Some Shared -> true)
      in
      { Backend.would_forward; observe })
    inner
