open Velodrome_trace
open Velodrome_trace.Ids
open Velodrome_util

type t = {
  names : Names.t;
  mutable init : (Var.t * int) list;
  bodies : Ast.stmt list Vec.t;
  mutable next_reg : int;
}

let create () =
  {
    names = Names.create ();
    init = [];
    bodies = Vec.create ();
    next_reg = Ast.tid_reg + 1;
  }

let names t = t.names

let var ?init t name =
  let known = Symtab.find t.names.Names.vars name <> None in
  let x = Names.var t.names name in
  (match init with
  | Some v when not known -> t.init <- (x, v) :: t.init
  | _ -> ());
  x

let volatile ?init t name =
  let x = var ?init t name in
  Names.set_volatile t.names x;
  x

let lock t name = Names.lock t.names name
let label t name = Names.label t.names name

let fresh_reg t =
  let r = t.next_reg in
  t.next_reg <- r + 1;
  r

let thread t body = Vec.push t.bodies body
let thread_count t = Vec.length t.bodies

let threads t n body =
  for k = 0 to n - 1 do
    thread t (body k)
  done

let program t =
  {
    Ast.names = t.names;
    var_count = Symtab.size t.names.Names.vars;
    init = List.rev t.init;
    threads = Vec.to_array t.bodies;
  }

let ( +: ) a b = Ast.Add (a, b)
let ( -: ) a b = Ast.Sub (a, b)
let ( *: ) a b = Ast.Mul (a, b)
let i n = Ast.Int n
let r k = Ast.Reg k
let ( ==: ) lhs rhs = { Ast.lhs; cmp = Ast.Eq; rhs }
let ( <>: ) lhs rhs = { Ast.lhs; cmp = Ast.Ne; rhs }
let ( <: ) lhs rhs = { Ast.lhs; cmp = Ast.Lt; rhs }
let ( >=: ) lhs rhs = { Ast.lhs; cmp = Ast.Ge; rhs }
let read reg x = Ast.Read (reg, x)
let write x e = Ast.Write (x, e)
let local reg e = Ast.Local (reg, e)
let acquire m = Ast.Acquire m
let release m = Ast.Release m
let sync m body = (Ast.Acquire m :: body) @ [ Ast.Release m ]
let atomic l body = Ast.Atomic (l, body)
let if_ c a b = Ast.If (c, a, b)
let while_ c body = Ast.While (c, body)
let work n = Ast.Work n
let yield = Ast.Yield

let spin_until t x e =
  let tmp = fresh_reg t in
  [
    read tmp x;
    while_ (r tmp <>: e) [ yield; read tmp x ];
  ]
