(* Order statistics over timing samples. *)

(* Linear interpolation between closest ranks (the "inclusive" method):
   [quantile 0.5] is the median, [quantile 0.99] of 1,000 samples leaves
   ten samples above it. *)
let quantile q samples =
  let a = Array.copy samples in
  Array.sort compare a;
  match Array.length a with
  | 0 -> nan
  | n ->
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median samples = quantile 0.5 samples

(* How many samples lie strictly above the [q] quantile. *)
let beyond q samples =
  let v = quantile q samples in
  Array.fold_left (fun acc x -> if x > v then acc + 1 else acc) 0 samples

let min_by f = function
  | [] -> invalid_arg "Stat.min_by"
  | x :: xs -> List.fold_left (fun a b -> if f b < f a then b else a) x xs
