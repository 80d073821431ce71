(** Tid-specialized constant/interval value analysis over the program AST.

    Each thread body is abstractly interpreted with a constant+interval
    domain on registers, with {!Velodrome_sim.Ast.tid_reg} pinned to the
    thread's own id — so replicated bodies that dispatch on the thread id
    ([if r0 == k then writer-role else reader-role]) are analyzed once per
    replica with the dispatch register known exactly. Branch conditions
    refine the register environment on each arm; an arm whose refined
    environment is empty is {e statically dead}, and every statement
    inside it is a {e dead site} no dynamic event can originate from.

    Shared variables contribute through a global invariant: for every
    variable, the join of its initial value with every live write's
    abstract right-hand side, iterated (with widening) until live sites
    and invariants stabilize. A [read r x] therefore binds [r] to the
    variable's invariant interval.

    Soundness: every abstract operation over-approximates
    {!Velodrome_sim.Ast.eval} — including division and modulo by zero
    evaluating to 0 — and any arithmetic whose inputs could exceed a
    magnitude limit returns [top], so native-int wraparound can never
    escape an interval. Consequently a dead site is never executed on any
    schedule, and every dynamically observed value at a fact site lies
    within its static interval; the [analyze --gate] obligations check
    both claims empirically.

    Facts are keyed by {!Cfg.site}; the walker recomputes the same
    structural coordinates as {!Cfg.of_program}, {!Reduce} and the
    interpreter. *)

open Velodrome_trace
open Velodrome_trace.Ids

(** {1 Interval domain} *)

type bound = Neg_inf | Fin of int | Pos_inf

type itv = Bot | Itv of bound * bound
(** Non-[Bot] intervals are normalized: finite bounds have magnitude at
    most {!limit} and the lower bound does not exceed the upper. *)

val limit : int
(** Magnitude guard: any arithmetic whose inputs or results could exceed
    this returns {!top}, keeping every non-top claim exact despite the
    simulator's wrapping native-int arithmetic. *)

val top : itv

val const : int -> itv
(** Singleton; {!top} when the constant's magnitude exceeds {!limit}. *)

val interval : int -> int -> itv
(** [interval lo hi]; [Bot] when [lo > hi], bounds washed to infinity
    beyond {!limit}. *)

val mem : int -> itv -> bool
val leq : itv -> itv -> bool
val join : itv -> itv -> itv
val meet : itv -> itv -> itv

val widen : itv -> itv -> itv
(** [widen old next]: keep each stable bound of [old], wash a growing one
    to infinity. Guarantees termination of loop and global fixpoints. *)

val add : itv -> itv -> itv
val sub : itv -> itv -> itv
val mul : itv -> itv -> itv

val div : itv -> itv -> itv
(** Mirrors {!Velodrome_sim.Ast.eval}: division by zero evaluates to 0. *)

val mod_ : itv -> itv -> itv
(** Mirrors {!Velodrome_sim.Ast.eval}: modulo by zero evaluates to 0;
    otherwise the result has the dividend's sign. *)

val itv_to_string : itv -> string
(** ["bot"], ["top"], ["=k"] for singletons, ["[lo..hi]"] otherwise. *)

(** {1 Analysis results} *)

type target = Reg_target of Velodrome_sim.Ast.reg | Var_target of Var.t

type fact = { f_site : Cfg.site; target : target; itv : itv }
(** The abstract value observable at the site, joined over every visit:
    the value read ([Read]), written ([Write]) or assigned ([Local]). *)

type arm = Then_arm | Else_arm | Loop_body | Loop_exit

type dead_branch = { d_site : Cfg.site; d_arm : arm }
(** The [d_site] thread never takes this arm of the [if]/[while] at
    [d_site]: [Loop_body] means the loop never runs an iteration,
    [Loop_exit] that it never terminates. *)

type t

val analyze : Velodrome_sim.Ast.program -> t

val dead_site : t -> Cfg.site -> bool
(** The site exists in the program but no execution of its thread can
    reach it. Sites unknown to the walker (e.g. thread entries) are
    never dead. *)

val fact_at : t -> Cfg.site -> fact option

val facts : t -> fact list
(** All value facts in site order. *)

val dead_branches : t -> dead_branch list
(** In site order. *)

val var_interval : t -> Var.t -> itv
(** The variable's global invariant: initial value joined with every
    live write. *)

val dead_site_count : t -> int
val dead_branch_count : t -> int
val fact_count : t -> int

val arm_string : arm -> string
(** ["then"], ["else"], ["body"] or ["exit"]. *)

val arm_message : arm -> string
(** The lint phrasing: ["never takes this arm"] for if-arms,
    ["never enters the loop"] / ["never leaves the loop"] for loops. *)

val target_string : Names.t -> target -> string
(** ["r3"] for registers, the variable's name otherwise. *)
