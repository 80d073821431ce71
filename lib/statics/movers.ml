open Velodrome_trace
open Velodrome_trace.Ids

module IntSet = Set.Make (Int)
module IntMap = Map.Make (Int)

type why_both =
  | Guarded of Lock.t
  | Thread_local
  | Read_only
  | Race_free
  | Reentrant

type why_non = Volatile_access | Unguarded | Racy of Cfg.site

type klass =
  | Both of why_both
  | Right  (** lock acquire *)
  | Left  (** lock release *)
  | Non of why_non

type var_facts = {
  threads : IntSet.t;
  written : bool;
  guards : IntSet.t option;
      (** locks held at every access so far; [None] before the first *)
}

type t = { by_site : (int * int list, klass) Hashtbl.t }

let empty_facts = { threads = IntSet.empty; written = false; guards = None }

(* Pass 1: global per-variable facts — which threads access it, whether it
   is ever written, and the intersection of must-locksets over all access
   sites. These only pick the most specific both-mover witness; the
   classification itself comes from the race pairs. *)
let collect_vars ~dead cfg locksets =
  let vars = ref IntMap.empty in
  Cfg.iter_nodes
    (fun n ->
      if dead n.Cfg.site then ()
      else
      let access x ~is_write =
        let k = Var.to_int x in
        let f = Option.value ~default:empty_facts (IntMap.find_opt k !vars) in
        let held = IntSet.of_list (Lockset.locks_held locksets n.Cfg.id) in
        let guards =
          match f.guards with
          | None -> Some held
          | Some g -> Some (IntSet.inter g held)
        in
        vars :=
          IntMap.add k
            {
              threads = IntSet.add n.Cfg.site.Cfg.thread f.threads;
              written = f.written || is_write;
              guards;
            }
            !vars
      in
      match n.Cfg.eff with
      | Cfg.Read x -> access x ~is_write:false
      | Cfg.Write x -> access x ~is_write:true
      | _ -> ())
    cfg;
  !vars

let global_guard (f : var_facts) =
  match f.guards with
  | Some g when not (IntSet.is_empty g) -> Some (Lock.of_int (IntSet.min_elt g))
  | _ -> None

(* The most specific both-mover witness for a race-free access, so the
   legacy explanations survive where they still apply and only the newly
   provable class reads "race-free". *)
let why_race_free (f : var_facts) =
  if IntSet.cardinal f.threads <= 1 then Thread_local
  else if not f.written then Read_only
  else match global_guard f with Some g -> Guarded g | None -> Race_free

(* Atomizer's rule verbatim: an access is a both-mover exactly when it is
   race-free, i.e. it appears in no static race pair. *)
let classify_access names races vars (n : Cfg.node) x =
  if Names.is_volatile names x then Non Volatile_access
  else
    match Races.witness races n.Cfg.site with
    | Some p -> Non (Racy (Races.other_end p n.Cfg.site).Races.site)
    | None ->
      Both
        (why_race_free
           (Option.value ~default:empty_facts
              (IntMap.find_opt (Var.to_int x) vars)))

let analyze ?(dead = fun (_ : Cfg.site) -> false) names cfg locksets races =
  let vars = collect_vars ~dead cfg locksets in
  let by_site = Hashtbl.create 256 in
  Cfg.iter_nodes
    (fun n ->
      if dead n.Cfg.site then ()
      else
      let site = (n.Cfg.site.Cfg.thread, n.Cfg.site.Cfg.path) in
      let record k = Hashtbl.replace by_site site k in
      match n.Cfg.eff with
      | Cfg.Read x | Cfg.Write x ->
        record (classify_access names races vars n x)
      | Cfg.Acquire m ->
        record
          (if Lockset.depth_before locksets n.Cfg.id m >= 1 then
             Both Reentrant
           else Right)
      | Cfg.Release m ->
        record
          (if Lockset.depth_before locksets n.Cfg.id m >= 2 then
             Both Reentrant
           else Left)
      | Cfg.Enter _ | Cfg.Exit _ | Cfg.Silent -> ())
    cfg;
  { by_site }

let at_site t (site : Cfg.site) =
  Hashtbl.find_opt t.by_site (site.Cfg.thread, site.Cfg.path)

let pp_why_both names ppf = function
  | Guarded m ->
    Format.fprintf ppf "guarded by %s at every access"
      (Names.lock_name names m)
  | Thread_local -> Format.pp_print_string ppf "thread-local"
  | Read_only -> Format.pp_print_string ppf "read-only"
  | Race_free ->
    Format.pp_print_string ppf "race-free (every conflicting pair shares a lock)"
  | Reentrant -> Format.pp_print_string ppf "re-entrant"

let pp_why_non ppf = function
  | Volatile_access -> Format.pp_print_string ppf "volatile"
  | Unguarded -> Format.pp_print_string ppf "no common guard"
  | Racy other ->
    Format.fprintf ppf "races with %s" (Cfg.site_to_string other)

let pp_klass names ppf = function
  | Both w -> Format.fprintf ppf "both-mover (%a)" (pp_why_both names) w
  | Right -> Format.pp_print_string ppf "right-mover"
  | Left -> Format.pp_print_string ppf "left-mover"
  | Non w -> Format.fprintf ppf "non-mover (%a)" pp_why_non w
