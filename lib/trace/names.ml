open Velodrome_util

type t = {
  vars : Symtab.t;
  locks : Symtab.t;
  labels : Symtab.t;
  volatiles : (int, unit) Hashtbl.t;
}

let create () =
  {
    vars = Symtab.create ();
    locks = Symtab.create ();
    labels = Symtab.create ();
    volatiles = Hashtbl.create 8;
  }

let var t s = Ids.Var.of_int (Symtab.intern t.vars s)
let lock t s = Ids.Lock.of_int (Symtab.intern t.locks s)
let label t s = Ids.Label.of_int (Symtab.intern t.labels s)

let lookup tbl id fallback =
  match id with
  | id when id >= 0 && id < Symtab.size tbl -> Symtab.name tbl id
  | _ -> fallback

let var_name t x =
  lookup t.vars (Ids.Var.to_int x) (Format.asprintf "%a" Ids.Var.pp x)

let lock_name t m =
  lookup t.locks (Ids.Lock.to_int m) (Format.asprintf "%a" Ids.Lock.pp m)

let label_name t l =
  lookup t.labels (Ids.Label.to_int l) (Format.asprintf "%a" Ids.Label.pp l)

let set_volatile t x = Hashtbl.replace t.volatiles (Ids.Var.to_int x) ()
let is_volatile t x = Hashtbl.mem t.volatiles (Ids.Var.to_int x)
