open Velodrome_sim
open Builder

let locked_rmw b ~label:l ~lock:m ~var:x =
  let tmp = fresh_reg b in
  atomic (label b l)
    (sync m [ read tmp x; write x (r tmp +: i 1) ])

let racy_rmw b ~label:l ~var:x =
  let tmp = fresh_reg b in
  atomic (label b l) [ read tmp x; yield; write x (r tmp +: i 1) ]

let double_read b ~label:l ~var:x =
  let t1 = fresh_reg b in
  let t2 = fresh_reg b in
  atomic (label b l) [ read t1 x; yield; read t2 x; local t1 (r t1 -: r t2) ]

let rare_rmw b ~label:l ~var:x =
  let tmp = fresh_reg b in
  atomic (label b l) [ read tmp x; write x (r tmp +: i 1) ]

let staggered ~period ~iter stmt =
  if_
    {
      Ast.lhs = Ast.Mod (Ast.Reg iter, Ast.Int period);
      cmp = Ast.Eq;
      rhs = Ast.Mod (Ast.Reg Ast.tid_reg, Ast.Int period);
    }
    [ stmt ] []

let config_reader b ~label:l ~a ~b:bv ~sink =
  let ta = fresh_reg b in
  let tb = fresh_reg b in
  let body =
    [ read ta a; read tb bv ]
    @ match sink with
      | Some s -> [ write s (r ta +: r tb) ]
      | None -> []
  in
  atomic (label b l) body

let volatile_pair_reader b ~label:l ~flag =
  let t1 = fresh_reg b in
  let t2 = fresh_reg b in
  atomic (label b l) [ read t1 flag; read t2 flag; local t1 (r t1 +: r t2) ]

let locked_pair_update b ~label:l ~lock:m ~a ~b:bv =
  let ta = fresh_reg b in
  let tb = fresh_reg b in
  atomic (label b l)
    (sync m
       [
         read ta a;
         read tb bv;
         write a (r ta +: i 1);
         write bv (r tb +: i 1);
       ])

let barrier b ~prefix ~parties =
  let count = var b (prefix ^ ".count") in
  let gen = volatile b (prefix ^ ".gen") in
  let bl = lock b (prefix ^ ".lock") in
  let rg = fresh_reg b in
  let rc = fresh_reg b in
  let cur = fresh_reg b in
  [
    read rg gen;
  ]
  @ sync bl [ read rc count; write count (r rc +: i 1) ]
  @ [
      if_
        (r rc +: i 1 ==: i parties)
        (sync bl [ write count (i 0) ] @ [ write gen (r rg +: i 1) ])
        [
          read cur gen;
          while_ (r cur ==: r rg) [ yield; read cur gen ];
        ];
    ]
