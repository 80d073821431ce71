open Velodrome_trace
open Velodrome_trace.Ids
open Velodrome_sim
module IntMap = Map.Make (Int)

(* --- interval domain ----------------------------------------------------- *)

type bound = Neg_inf | Fin of int | Pos_inf

type itv = Bot | Itv of bound * bound

(* The simulator evaluates expressions over wrapping native ints. Keeping
   every tracked magnitude far below [max_int] means no arithmetic on
   in-range operands can wrap (|a|,|b| <= 2^30 bounds sums by 2^31 and
   products by 2^60), so interval endpoints computed here are exact;
   anything that could leave the range is washed to [top] instead of
   risking a claim a wrapped concrete value would escape. *)
let limit = 1 lsl 30

let top = Itv (Neg_inf, Pos_inf)

let bcmp a b =
  match (a, b) with
  | Neg_inf, Neg_inf | Pos_inf, Pos_inf -> 0
  | Neg_inf, _ -> -1
  | _, Neg_inf -> 1
  | Pos_inf, _ -> 1
  | _, Pos_inf -> -1
  | Fin x, Fin y -> Int.compare x y

let wash_lo = function Fin l when l < -limit -> Neg_inf | b -> b
let wash_hi = function Fin h when h > limit -> Pos_inf | b -> b

let interval lo hi =
  if lo > hi then Bot else Itv (wash_lo (Fin lo), wash_hi (Fin hi))

let const n = interval n n

let mem v = function
  | Bot -> false
  | Itv (lo, hi) ->
    (match lo with Neg_inf -> true | Fin l -> l <= v | Pos_inf -> false)
    && (match hi with Pos_inf -> true | Fin h -> v <= h | Neg_inf -> false)

let is_singleton = function
  | Itv (Fin l, Fin h) when l = h -> Some l
  | _ -> None

let leq a b =
  match (a, b) with
  | Bot, _ -> true
  | _, Bot -> false
  | Itv (la, ha), Itv (lb, hb) -> bcmp lb la <= 0 && bcmp ha hb <= 0

let join a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Itv (la, ha), Itv (lb, hb) ->
    Itv
      ( (if bcmp la lb <= 0 then la else lb),
        if bcmp ha hb >= 0 then ha else hb )

let meet a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Itv (la, ha), Itv (lb, hb) ->
    let lo = if bcmp la lb >= 0 then la else lb in
    let hi = if bcmp ha hb <= 0 then ha else hb in
    if bcmp lo hi > 0 then Bot else Itv (lo, hi)

let widen old next =
  match (old, next) with
  | Bot, x | x, Bot -> x
  | Itv (lo, ho), Itv (ln, hn) ->
    Itv
      ( (if bcmp ln lo < 0 then Neg_inf else lo),
        if bcmp hn ho > 0 then Pos_inf else ho )

(* Arithmetic lifts. Finite endpoints must be within [limit] for the
   endpoint computation to be exact (in-range operands cannot wrap
   natively); infinite endpoints are not value claims and propagate
   through addition/subtraction structurally. In a normalized interval
   the lower bound is never [Pos_inf] and the upper never [Neg_inf]. *)
let fin_ok = function Fin n -> n >= -limit && n <= limit | _ -> true

let lift2 f a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Itv (la, ha), Itv (lb, hb)
    when fin_ok la && fin_ok ha && fin_ok lb && fin_ok hb ->
    f (la, ha) (lb, hb)
  | _, _ -> top

let clamp lo hi = Itv (wash_lo (Fin lo), wash_hi (Fin hi))

(* Lower-endpoint / upper-endpoint sums: an infinite operand dominates. *)
let blo_add a b =
  match (a, b) with
  | Neg_inf, _ | _, Neg_inf -> Neg_inf
  | Fin x, Fin y -> wash_lo (Fin (x + y))
  | _ -> Neg_inf (* unreachable on normalized bounds *)

let bhi_add a b =
  match (a, b) with
  | Pos_inf, _ | _, Pos_inf -> Pos_inf
  | Fin x, Fin y -> wash_hi (Fin (x + y))
  | _ -> Pos_inf (* unreachable on normalized bounds *)

let bneg = function Neg_inf -> Pos_inf | Pos_inf -> Neg_inf | Fin n -> Fin (-n)

let add = lift2 (fun (la, ha) (lb, hb) -> Itv (blo_add la lb, bhi_add ha hb))

let sub =
  lift2 (fun (la, ha) (lb, hb) ->
      Itv (blo_add la (bneg hb), bhi_add ha (bneg lb)))

(* Multiplication, division and modulo keep the all-finite requirement:
   infinite operands fall back to [top] (sound, and loops — the one place
   infinities arise — only ever feed addition). *)
let fin4 f (la, ha) (lb, hb) =
  match (la, ha, lb, hb) with
  | Fin la, Fin ha, Fin lb, Fin hb -> f la ha lb hb
  | _ -> top

let mul =
  lift2
    (fin4 (fun la ha lb hb ->
         let p1 = la * lb and p2 = la * hb and p3 = ha * lb and p4 = ha * hb in
         clamp (min (min p1 p2) (min p3 p4)) (max (max p1 p2) (max p3 p4))))

(* [Ast.eval] defines x/0 = 0 and x mod 0 = 0. OCaml division truncates
   toward zero, which is monotone in the dividend for a fixed non-zero
   divisor, so a singleton divisor yields exact endpoint quotients; any
   wider divisor falls back to the magnitude bound |a/d| <= |a| (with 0
   included, covering a zero divisor). *)
let div =
  lift2
    (fin4 (fun la ha lb hb ->
         if lb = hb then
           if lb = 0 then const 0
           else
             let q1 = la / lb and q2 = ha / lb in
             clamp (min q1 q2) (max q1 q2)
         else
           let m = max (abs la) (abs ha) in
           clamp (-m) m))

let mod_ =
  lift2
    (fin4 (fun la ha lb hb ->
         if lb = 0 && hb = 0 then const 0
         else
           (* |a mod d| <= min(|a|, |d|-1) for d <> 0, result 0 for d = 0,
              and the sign follows the dividend. *)
           let k = max (abs lb) (abs hb) in
           let j = min (max 0 (k - 1)) (max (abs la) (abs ha)) in
           if la >= 0 then clamp 0 j
           else if ha <= 0 then clamp (-j) 0
           else clamp (-j) j))

let bound_to_string = function
  | Neg_inf -> "-inf"
  | Pos_inf -> "+inf"
  | Fin n -> string_of_int n

let itv_to_string = function
  | Bot -> "bot"
  | Itv (Neg_inf, Pos_inf) -> "top"
  | Itv (Fin l, Fin h) when l = h -> Printf.sprintf "=%d" l
  | Itv (lo, hi) ->
    Printf.sprintf "[%s..%s]" (bound_to_string lo) (bound_to_string hi)

(* --- register environments ----------------------------------------------- *)

(* The interpreter allocates 256 registers per thread, all zero except
   the preloaded tid register; reads beyond the file yield 0 and writes
   are dropped. The abstract environment mirrors that exactly: an absent
   binding means "definitely 0". *)
let reg_limit = 256

let env_get env r =
  if r < 0 || r >= reg_limit then const 0
  else Option.value ~default:(const 0) (IntMap.find_opt r env)

let env_set env r v = if r >= 0 && r < reg_limit then IntMap.add r v env else env

let env_join a b =
  IntMap.merge
    (fun _ va vb ->
      Some
        (join
           (Option.value ~default:(const 0) va)
           (Option.value ~default:(const 0) vb)))
    a b

let env_widen old next =
  IntMap.merge
    (fun _ vo vn ->
      Some
        (widen
           (Option.value ~default:(const 0) vo)
           (Option.value ~default:(const 0) vn)))
    old next

let env_leq a b =
  IntMap.for_all (fun k va -> leq va (env_get b k)) a
  && IntMap.for_all (fun k vb -> leq (env_get a k) vb) b

let join_opt a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some ea, Some eb -> Some (env_join ea eb)

(* --- expression and condition evaluation --------------------------------- *)

let rec eval env = function
  | Ast.Int n -> const n
  | Ast.Reg r -> env_get env r
  | Ast.Add (a, b) -> add (eval env a) (eval env b)
  | Ast.Sub (a, b) -> sub (eval env a) (eval env b)
  | Ast.Mul (a, b) -> mul (eval env a) (eval env b)
  | Ast.Div (a, b) -> div (eval env a) (eval env b)
  | Ast.Mod (a, b) -> mod_ (eval env a) (eval env b)

let negate = function
  | Ast.Eq -> Ast.Ne
  | Ast.Ne -> Ast.Eq
  | Ast.Lt -> Ast.Ge
  | Ast.Le -> Ast.Gt
  | Ast.Gt -> Ast.Le
  | Ast.Ge -> Ast.Lt

let swap = function
  | Ast.Eq -> Ast.Eq
  | Ast.Ne -> Ast.Ne
  | Ast.Lt -> Ast.Gt
  | Ast.Le -> Ast.Ge
  | Ast.Gt -> Ast.Lt
  | Ast.Ge -> Ast.Le

(* Can [a cmp b] hold for some a in [ia], b in [ib]? Over-approximate. *)
let sat ia cmp ib =
  match (ia, ib) with
  | Bot, _ | _, Bot -> false
  | Itv (la, ha), Itv (lb, hb) -> (
    match cmp with
    | Ast.Eq -> meet ia ib <> Bot
    | Ast.Ne -> (
      match (is_singleton ia, is_singleton ib) with
      | Some x, Some y -> x <> y
      | _ -> true)
    | Ast.Lt -> bcmp la hb < 0
    | Ast.Le -> bcmp la hb <= 0
    | Ast.Gt -> bcmp ha lb > 0
    | Ast.Ge -> bcmp ha lb >= 0)

let bpred = function Fin n -> Fin (n - 1) | b -> b
let bsucc = function Fin n -> Fin (n + 1) | b -> b

(* The interval containing every a with exists b in [ib]. a cmp b. *)
let lhs_constraint cmp ib =
  match ib with
  | Bot -> Bot
  | Itv (lb, hb) -> (
    match cmp with
    | Ast.Eq -> ib
    | Ast.Ne -> top (* singleton shaving is done at the meet site *)
    | Ast.Lt -> Itv (Neg_inf, bpred hb)
    | Ast.Le -> Itv (Neg_inf, hb)
    | Ast.Gt -> Itv (bsucc lb, Pos_inf)
    | Ast.Ge -> Itv (lb, Pos_inf))

(* Shave an endpoint equal to a known-excluded constant. *)
let shave_ne ia k =
  match ia with
  | Itv (Fin l, Fin h) when l = k && h = k -> Bot
  | Itv (Fin l, hi) when l = k -> Itv (Fin (l + 1), hi)
  | Itv (lo, Fin h) when h = k -> Itv (lo, Fin (h - 1))
  | _ -> ia

let refine_reg env r cmp other_itv =
  if r < 0 || r >= reg_limit then Some env
  else
    let cur = env_get env r in
    let refined =
      match cmp with
      | Ast.Ne -> (
        match is_singleton other_itv with
        | Some k -> shave_ne cur k
        | None -> cur)
      | _ -> meet cur (lhs_constraint cmp other_itv)
    in
    if refined = Bot then None else Some (env_set env r refined)

(* Refine [env] under the assumption that [cond] evaluates to [sense];
   [None] when the assumption is unsatisfiable (the arm is dead). *)
let refine env (cond : Ast.cond) sense =
  let cmp = if sense then cond.Ast.cmp else negate cond.Ast.cmp in
  let ia = eval env cond.Ast.lhs and ib = eval env cond.Ast.rhs in
  if not (sat ia cmp ib) then None
  else
    let env =
      match cond.Ast.lhs with
      | Ast.Reg r -> refine_reg env r cmp ib
      | _ -> Some env
    in
    match env with
    | None -> None
    | Some env -> (
      match cond.Ast.rhs with
      | Ast.Reg r -> refine_reg env r (swap cmp) ia
      | _ -> Some env)

(* --- analysis results ---------------------------------------------------- *)

type target = Reg_target of Ast.reg | Var_target of Var.t

type fact = { f_site : Cfg.site; target : target; itv : itv }

type arm = Then_arm | Else_arm | Loop_body | Loop_exit

type dead_branch = { d_site : Cfg.site; d_arm : arm }

type t = {
  facts_tbl : (int * int list, fact) Hashtbl.t;
  sorted_facts : fact list;
  dead : (int * int list, unit) Hashtbl.t;
  branches : dead_branch list;
  var_inv : itv array;
}

(* --- the walker ---------------------------------------------------------- *)

type ctx = {
  vinv : itv array;  (** current shared-variable invariants *)
  writes : itv array;  (** live write values accumulated this walk *)
  facts : (int * int list, fact) Hashtbl.t;
  seen : (int * int list, unit) Hashtbl.t;
  live : (int * int list, unit) Hashtbl.t;
  mutable dead_arms : dead_branch list;
}

let record_write ctx x v =
  let k = Var.to_int x in
  if k >= 0 && k < Array.length ctx.writes then
    ctx.writes.(k) <- join ctx.writes.(k) v

let vinv_get ctx x =
  let k = Var.to_int x in
  if k >= 0 && k < Array.length ctx.vinv then ctx.vinv.(k) else top

let add_fact ctx key f =
  match Hashtbl.find_opt ctx.facts key with
  | None -> Hashtbl.replace ctx.facts key f
  | Some old ->
    Hashtbl.replace ctx.facts key { f with itv = join old.itv f.itv }

let add_dead_arm ctx site arm =
  ctx.dead_arms <- { d_site = site; d_arm = arm } :: ctx.dead_arms

(* Widening delay: small counted loops (the generator's bound is 3)
   stabilize exactly before bounds start getting washed to infinity. *)
let widen_from = 4

(* Walk a statement list; [env = None] means the point is unreachable —
   the recursion continues to mark descendant sites as seen (so they
   count as dead), never recording facts. Statement [j] of a block at
   [path] sits at [path @ [j]]; if-arms open [path @ [arm]]; while and
   atomic bodies reuse the statement's own path — the same coordinates
   as [Cfg.of_program] and the interpreter. *)
let rec walk_stmts ctx ~record thread path env stmts =
  List.fold_left
    (fun (env, j) stmt ->
      (walk_stmt ctx ~record thread (path @ [ j ]) env stmt, j + 1))
    (env, 0) stmts
  |> fst

and walk_stmt ctx ~record thread path env stmt =
  let key = (thread, path) in
  let site = { Cfg.thread; path } in
  if record then begin
    Hashtbl.replace ctx.seen key ();
    if env <> None then Hashtbl.replace ctx.live key ()
  end;
  match stmt with
  | Ast.Read (r, x) -> (
    match env with
    | None -> None
    | Some e ->
      let v = vinv_get ctx x in
      if record then add_fact ctx key { f_site = site; target = Var_target x; itv = v };
      Some (env_set e r v))
  | Ast.Write (x, ex) -> (
    match env with
    | None -> None
    | Some e ->
      let v = eval e ex in
      record_write ctx x v;
      if record then add_fact ctx key { f_site = site; target = Var_target x; itv = v };
      env)
  | Ast.Local (r, ex) -> (
    match env with
    | None -> None
    | Some e ->
      let v = eval e ex in
      if record then add_fact ctx key { f_site = site; target = Reg_target r; itv = v };
      Some (env_set e r v))
  | Ast.Acquire _ | Ast.Release _ | Ast.Work _ | Ast.Yield -> env
  | Ast.Atomic (_, body) -> walk_stmts ctx ~record thread path env body
  | Ast.If (c, then_b, else_b) ->
    let env_then = Option.bind env (fun e -> refine e c true) in
    let env_else = Option.bind env (fun e -> refine e c false) in
    if record && env <> None then begin
      if env_then = None then add_dead_arm ctx site Then_arm;
      if env_else = None then add_dead_arm ctx site Else_arm
    end;
    let out_t = walk_stmts ctx ~record thread (path @ [ 0 ]) env_then then_b in
    let out_e = walk_stmts ctx ~record thread (path @ [ 1 ]) env_else else_b in
    join_opt out_t out_e
  | Ast.While (c, body) -> (
    match env with
    | None ->
      ignore (walk_stmts ctx ~record thread path None body);
      None
    | Some e ->
      (* Head fixpoint: the head environment covers loop entry and every
         back edge; widen after [widen_from] rounds so it terminates. *)
      let rec fix n head =
        let inb = refine head c true in
        let after =
          walk_stmts ctx ~record:false thread path inb body
        in
        let head' =
          match after with None -> head | Some a -> env_join head a
        in
        if env_leq head' head then head
        else fix (n + 1) (if n >= widen_from then env_widen head head' else head')
      in
      let head = fix 0 e in
      let env_body = refine head c true in
      let env_exit = refine head c false in
      if record then begin
        if env_body = None then add_dead_arm ctx site Loop_body;
        if env_exit = None then add_dead_arm ctx site Loop_exit;
        (* One recording pass over the body under the stabilized head. *)
        ignore (walk_stmts ctx ~record thread path env_body body)
      end;
      env_exit)

let init_env thread =
  IntMap.add Ast.tid_reg (const thread) IntMap.empty

let walk ctx ~record (p : Ast.program) =
  Array.iteri
    (fun thread body ->
      ignore (walk_stmts ctx ~record thread [] (Some (init_env thread)) body))
    p.Ast.threads

let fact_compare a b = Cfg.site_compare a.f_site b.f_site

let branch_compare a b =
  match Cfg.site_compare a.d_site b.d_site with
  | 0 -> Stdlib.compare a.d_arm b.d_arm
  | c -> c

let analyze (p : Ast.program) =
  let nvars = max 1 p.Ast.var_count in
  let base = Array.make nvars (const 0) in
  List.iter
    (fun (x, v) ->
      let k = Var.to_int x in
      if k >= 0 && k < nvars then base.(k) <- const v)
    p.Ast.init;
  let ctx =
    {
      vinv = Array.copy base;
      writes = Array.make nvars Bot;
      facts = Hashtbl.create 256;
      seen = Hashtbl.create 256;
      live = Hashtbl.create 256;
      dead_arms = [];
    }
  in
  (* Outer fixpoint on the shared-variable invariants: re-walk every
     thread, fold the live writes back in, widen once the round count
     passes the delay. Transfer functions and condition satisfiability
     are monotone in the invariants, so the live-site set only grows and
     the final walk's facts cover every earlier round's. *)
  let rec rounds n =
    Array.fill ctx.writes 0 nvars Bot;
    walk ctx ~record:false p;
    let changed = ref false in
    Array.iteri
      (fun i w ->
        let next = join base.(i) w in
        if not (leq next ctx.vinv.(i)) then begin
          changed := true;
          ctx.vinv.(i) <-
            (if n >= 2 then widen ctx.vinv.(i) next
             else join ctx.vinv.(i) next)
        end)
      ctx.writes;
    if !changed then rounds (n + 1)
  in
  rounds 0;
  walk ctx ~record:true p;
  let dead = Hashtbl.create 64 in
  Hashtbl.iter
    (fun key () ->
      if not (Hashtbl.mem ctx.live key) then Hashtbl.replace dead key ())
    ctx.seen;
  let sorted_facts =
    Hashtbl.fold (fun _ f acc -> f :: acc) ctx.facts []
    |> List.sort fact_compare
  in
  {
    facts_tbl = ctx.facts;
    sorted_facts;
    dead;
    branches = List.sort_uniq branch_compare ctx.dead_arms;
    var_inv = ctx.vinv;
  }

let dead_site t (s : Cfg.site) =
  Hashtbl.mem t.dead (s.Cfg.thread, s.Cfg.path)

let fact_at t (s : Cfg.site) =
  Hashtbl.find_opt t.facts_tbl (s.Cfg.thread, s.Cfg.path)

let facts t = t.sorted_facts
let dead_branches t = t.branches

let var_interval t x =
  let k = Var.to_int x in
  if k >= 0 && k < Array.length t.var_inv then t.var_inv.(k) else top

let dead_site_count t = Hashtbl.length t.dead
let dead_branch_count t = List.length t.branches
let fact_count t = List.length t.sorted_facts

let arm_string = function
  | Then_arm -> "then"
  | Else_arm -> "else"
  | Loop_body -> "body"
  | Loop_exit -> "exit"

let arm_message = function
  | Then_arm | Else_arm -> "never takes this arm"
  | Loop_body -> "never enters the loop"
  | Loop_exit -> "never leaves the loop"

let target_string names = function
  | Reg_target r -> Printf.sprintf "r%d" r
  | Var_target x -> Names.var_name names x
