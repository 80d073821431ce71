type t = { op : Op.t; index : int }

let make ~index op = { op; index }
let of_ops ops = List.mapi (fun index op -> make ~index op) ops
