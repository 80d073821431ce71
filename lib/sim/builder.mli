(** Embedded-DSL construction of {!Ast.program}s.

    Workloads and examples build programs in OCaml through this module;
    the textual front-end ({!Velodrome_lang}) produces the same AST from
    [.vel] source. A builder owns the program's {!Velodrome_trace.Names.t}
    and hands out interned variables, locks and labels by name. *)

open Velodrome_trace
open Velodrome_trace.Ids

type t

val create : unit -> t
val names : t -> Names.t

val var : ?init:int -> t -> string -> Var.t
(** Declare (or look up) a shared variable. [init] sets the initial value
    on first declaration. *)

val volatile : ?init:int -> t -> string -> Var.t
val lock : t -> string -> Lock.t
val label : t -> string -> Label.t

val fresh_reg : t -> Ast.reg
(** Registers are per-thread; the builder only hands out indices, so
    using the same index in two threads refers to two distinct
    registers. Indices from [fresh_reg] start after {!Ast.tid_reg}. *)

val thread : t -> Ast.stmt list -> unit
(** Append a thread with the given body. *)

val threads : t -> int -> (int -> Ast.stmt list) -> unit
(** [threads b n body] appends [n] threads; [body i] builds the body of
    the [i]-th (they may also branch on {!Ast.tid_reg} at runtime). *)

val thread_count : t -> int
(** Threads appended so far — the id the next appended thread will get. *)

val program : t -> Ast.program

(** Statement and expression shorthands. *)

val ( +: ) : Ast.expr -> Ast.expr -> Ast.expr
val ( -: ) : Ast.expr -> Ast.expr -> Ast.expr
val ( *: ) : Ast.expr -> Ast.expr -> Ast.expr
val i : int -> Ast.expr
val r : Ast.reg -> Ast.expr
val ( ==: ) : Ast.expr -> Ast.expr -> Ast.cond
val ( <>: ) : Ast.expr -> Ast.expr -> Ast.cond
val ( <: ) : Ast.expr -> Ast.expr -> Ast.cond
val ( >=: ) : Ast.expr -> Ast.expr -> Ast.cond

val read : Ast.reg -> Var.t -> Ast.stmt
val write : Var.t -> Ast.expr -> Ast.stmt
val local : Ast.reg -> Ast.expr -> Ast.stmt
val acquire : Lock.t -> Ast.stmt
val release : Lock.t -> Ast.stmt

val sync : Lock.t -> Ast.stmt list -> Ast.stmt list
(** Java's [synchronized]: acquire, body, release — spliced inline. *)

val atomic : Label.t -> Ast.stmt list -> Ast.stmt
val if_ : Ast.cond -> Ast.stmt list -> Ast.stmt list -> Ast.stmt
val while_ : Ast.cond -> Ast.stmt list -> Ast.stmt
val work : int -> Ast.stmt
val yield : Ast.stmt

val spin_until : t -> Var.t -> Ast.expr -> Ast.stmt list
(** Busy-wait until the (volatile) variable equals the expression,
    re-reading it every iteration. *)
