open Velodrome_trace
open Velodrome_trace.Ids

type access = {
  node : int;
  site : Cfg.site;
  write : bool;
  locks : int list;  (** must-lockset at the site, ascending lock ids *)
  atomics : Label.t list;  (** enclosing atomic blocks, innermost first *)
}

type pair = { var : Var.t; a : access; b : access }

let pair_compare p q =
  match Var.compare p.var q.var with
  | 0 -> (
    match Cfg.site_compare p.a.site q.a.site with
    | 0 -> Cfg.site_compare p.b.site q.b.site
    | c -> c)
  | c -> c

type t = {
  pairs : pair list;  (** sorted by [pair_compare], [a.site <= b.site] *)
  by_site : (int * int list, pair) Hashtbl.t;  (** first witness per site *)
  by_var : (int, int) Hashtbl.t;  (** racy var id -> pair count *)
  access_sites : int;  (** non-volatile shared access sites examined *)
}

(* Ascending int lists share no element. *)
let rec disjoint xs ys =
  match (xs, ys) with
  | [], _ | _, [] -> true
  | x :: xs', y :: ys' ->
    if x = y then false
    else if x < y then disjoint xs' ys
    else disjoint xs ys'

let analyze ?(dead = fun (_ : Cfg.site) -> false) names (cfg : Cfg.t)
    locksets mhp =
  let by_var_sites : (int, access list ref) Hashtbl.t = Hashtbl.create 64 in
  let access_sites = ref 0 in
  Cfg.iter_nodes
    (fun n ->
      let record x ~write =
        if
          (not (Names.is_volatile names x))
          && Mhp.reachable mhp n.Cfg.id
          && not (dead n.Cfg.site)
        then begin
          incr access_sites;
          let acc =
            {
              node = n.Cfg.id;
              site = n.Cfg.site;
              write;
              locks = Lockset.locks_held locksets n.Cfg.id;
              atomics = Mhp.enclosing_atomics mhp n.Cfg.id;
            }
          in
          let k = Var.to_int x in
          match Hashtbl.find_opt by_var_sites k with
          | Some l -> l := acc :: !l
          | None -> Hashtbl.replace by_var_sites k (ref [ acc ])
        end
      in
      match n.Cfg.eff with
      | Cfg.Read x -> record x ~write:false
      | Cfg.Write x -> record x ~write:true
      | _ -> ())
    cfg;
  let by_site = Hashtbl.create 64 in
  let by_var = Hashtbl.create 16 in
  let pairs = ref [] in
  Hashtbl.iter
    (fun var_id sites ->
      let sites = Array.of_list !sites in
      let n = Array.length sites in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let a = sites.(i) and b = sites.(j) in
          if
            (a.write || b.write)
            && a.site.Cfg.thread <> b.site.Cfg.thread
            && disjoint a.locks b.locks
          then begin
            (* Canonical orientation, so reports are stable. *)
            let a, b =
              if Cfg.site_compare a.site b.site <= 0 then (a, b) else (b, a)
            in
            let p = { var = Var.of_int var_id; a; b } in
            pairs := p :: !pairs;
            Hashtbl.replace by_var var_id
              (1
              + Option.value ~default:0 (Hashtbl.find_opt by_var var_id));
            let remember acc =
              let key = (acc.site.Cfg.thread, acc.site.Cfg.path) in
              if not (Hashtbl.mem by_site key) then
                Hashtbl.replace by_site key p
            in
            remember a;
            remember b
          end
        done
      done)
    by_var_sites;
  {
    pairs = List.sort pair_compare !pairs;
    by_site;
    by_var;
    access_sites = !access_sites;
  }

let pairs t = t.pairs
let pair_count t = List.length t.pairs
let access_sites t = t.access_sites

let witness t (site : Cfg.site) =
  Hashtbl.find_opt t.by_site (site.Cfg.thread, site.Cfg.path)

let racy_site t site = Option.is_some (witness t site)
let racy_var t x = Hashtbl.mem t.by_var (Var.to_int x)
let racy_var_count t = Hashtbl.length t.by_var

let racy_vars t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.by_var []
  |> List.sort_uniq Int.compare |> List.map Var.of_int

let other_end p (site : Cfg.site) =
  if Cfg.site_compare p.a.site site = 0 then p.b else p.a

let locks_string names locks =
  match locks with
  | [] -> "no locks"
  | ls ->
    Printf.sprintf "{%s}"
      (String.concat ","
         (List.map (fun l -> Names.lock_name names (Lock.of_int l)) ls))

let access_string names acc =
  Printf.sprintf "%s at %s holding %s"
    (if acc.write then "write" else "read")
    (Cfg.site_to_string acc.site)
    (locks_string names acc.locks)

let explain names p =
  let blocks =
    match
      List.sort_uniq Label.compare (p.a.atomics @ p.b.atomics)
    with
    | [] -> ""
    | ls ->
      Printf.sprintf " (endangers %s)"
        (String.concat ", " (List.map (Names.label_name names) ls))
  in
  Printf.sprintf "%s and %s share no lock%s" (access_string names p.a)
    (access_string names p.b)
    blocks
