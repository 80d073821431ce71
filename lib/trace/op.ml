open Ids

type t =
  | Read of Tid.t * Var.t
  | Write of Tid.t * Var.t
  | Acquire of Tid.t * Lock.t
  | Release of Tid.t * Lock.t
  | Begin of Tid.t * Label.t
  | End of Tid.t

let tid = function
  | Read (t, _)
  | Write (t, _)
  | Acquire (t, _)
  | Release (t, _)
  | Begin (t, _)
  | End t -> t

let var_of = function Read (_, x) | Write (_, x) -> Some x | _ -> None
let lock_of = function Acquire (_, m) | Release (_, m) -> Some m | _ -> None
let is_write = function Write _ -> true | _ -> false

let conflicts a b =
  Tid.equal (tid a) (tid b)
  || (match (var_of a, var_of b) with
     | Some x, Some y -> Var.equal x y && (is_write a || is_write b)
     | _ -> false)
  || (match (lock_of a, lock_of b) with
     | Some m, Some n -> Lock.equal m n
     | _ -> false)

let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare a b

let pp ppf = function
  | Read (t, x) -> Format.fprintf ppf "%a:rd(%a)" Tid.pp t Var.pp x
  | Write (t, x) -> Format.fprintf ppf "%a:wr(%a)" Tid.pp t Var.pp x
  | Acquire (t, m) -> Format.fprintf ppf "%a:acq(%a)" Tid.pp t Lock.pp m
  | Release (t, m) -> Format.fprintf ppf "%a:rel(%a)" Tid.pp t Lock.pp m
  | Begin (t, l) -> Format.fprintf ppf "%a:begin(%a)" Tid.pp t Label.pp l
  | End t -> Format.fprintf ppf "%a:end" Tid.pp t

let pp_named names ppf = function
  | Read (t, x) ->
    Format.fprintf ppf "%a:rd(%s)" Tid.pp t (Names.var_name names x)
  | Write (t, x) ->
    Format.fprintf ppf "%a:wr(%s)" Tid.pp t (Names.var_name names x)
  | Acquire (t, m) ->
    Format.fprintf ppf "%a:acq(%s)" Tid.pp t (Names.lock_name names m)
  | Release (t, m) ->
    Format.fprintf ppf "%a:rel(%s)" Tid.pp t (Names.lock_name names m)
  | Begin (t, l) ->
    Format.fprintf ppf "%a:begin(%s)" Tid.pp t (Names.label_name names l)
  | End t -> Format.fprintf ppf "%a:end" Tid.pp t

let to_string op = Format.asprintf "%a" pp op
