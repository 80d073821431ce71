module type ID = sig
  type t

  val of_int : int -> t
  val to_int : t -> int
  val equal : t -> t -> bool
  val compare : t -> t -> int
  val hash : t -> int
  val pp : Format.formatter -> t -> unit
end

(* Each kind is a plain structure rather than a functor application: the
   native compiler without flambda does not inline functions reached
   through a functor's result, and [of_int] runs on every decoded or
   parsed event. The raise stays out of line. *)
module Base = struct
  type t = int

  let to_int i = i
  let equal = Int.equal
  let compare = Int.compare
  let hash i = i
end

let[@inline never] negative prefix =
  invalid_arg ("Ids: negative " ^ prefix ^ " id")

let pp prefix ppf i = Format.fprintf ppf "%s%d" prefix i

module Tid = struct
  include Base

  let[@inline] of_int i = if i < 0 then negative "t" else i
  let pp = pp "t"
end

module Var = struct
  include Base

  let[@inline] of_int i = if i < 0 then negative "x" else i
  let pp = pp "x"
end

module Lock = struct
  include Base

  let[@inline] of_int i = if i < 0 then negative "m" else i
  let pp = pp "m"
end

module Label = struct
  include Base

  let[@inline] of_int i = if i < 0 then negative "L" else i
  let pp = pp "L"
end
