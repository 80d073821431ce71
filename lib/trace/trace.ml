open Ids

type t = Op.t array

let of_ops ops = Array.of_list ops
let of_array a = Array.copy a
let ops t = t
let to_list = Array.to_list
let length = Array.length
let get t i = t.(i)
let append t op = Array.append t [| op |]
let iteri = Array.iteri

let threads t =
  let module S = Set.Make (Int) in
  let s =
    Array.fold_left (fun acc op -> S.add (Tid.to_int (Op.tid op)) acc) S.empty t
  in
  List.map Tid.of_int (S.elements s)

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iteri (fun i op -> Format.fprintf ppf "%3d: %a@," i Op.pp op) t;
  Format.fprintf ppf "@]"

type violation =
  | Acquire_held of int * Lock.t
  | Release_unheld of int * Lock.t
  | End_without_begin of int * Tid.t

let pp_violation ppf = function
  | Acquire_held (i, m) ->
    Format.fprintf ppf "op %d acquires %a while it is held" i Lock.pp m
  | Release_unheld (i, m) ->
    Format.fprintf ppf "op %d releases %a without holding it" i Lock.pp m
  | End_without_begin (i, t) ->
    Format.fprintf ppf "op %d: thread %a ends a block it never began" i Tid.pp
      t

exception Ill_formed of violation

(* Dense per-id state, grown by doubling like the engines' own: the
   holder of each lock (-1 when free) and each thread's block depth. *)
module Checker = struct
  type t = { mutable holder : int array; mutable depth : int array }

  let create () = { holder = Array.make 8 (-1); depth = Array.make 8 0 }

  let grow a k fill =
    let b = Array.make (max (k + 1) (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b

  let step c i op =
    match op with
    | Op.Read _ | Op.Write _ -> ()
    | Op.Acquire (u, m) ->
      let k = Lock.to_int m in
      if k >= Array.length c.holder then c.holder <- grow c.holder k (-1);
      if c.holder.(k) >= 0 then raise (Ill_formed (Acquire_held (i, m)));
      c.holder.(k) <- Tid.to_int u
    | Op.Release (u, m) ->
      let k = Lock.to_int m in
      if k >= Array.length c.holder || c.holder.(k) <> Tid.to_int u then
        raise (Ill_formed (Release_unheld (i, m)));
      c.holder.(k) <- -1
    | Op.Begin (u, _) ->
      let k = Tid.to_int u in
      if k >= Array.length c.depth then c.depth <- grow c.depth k 0;
      c.depth.(k) <- c.depth.(k) + 1
    | Op.End u ->
      let k = Tid.to_int u in
      if k >= Array.length c.depth || c.depth.(k) = 0 then
        raise (Ill_formed (End_without_begin (i, u)));
      c.depth.(k) <- c.depth.(k) - 1
end

let check t =
  match Array.iteri (Checker.step (Checker.create ())) t with
  | () -> Ok ()
  | exception Ill_formed v -> Error v

let is_well_formed t = Result.is_ok (check t)
