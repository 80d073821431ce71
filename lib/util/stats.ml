let mean a =
  let n = Array.length a in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 a /. float_of_int n

let median a =
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let b = Array.copy a in
    Array.sort compare b;
    if n mod 2 = 1 then b.(n / 2) else (b.((n / 2) - 1) +. b.(n / 2)) /. 2.0
  end

let min_max a =
  if Array.length a = 0 then invalid_arg "Stats.min_max: empty array";
  Array.fold_left
    (fun (lo, hi) x -> (min lo x, max hi x))
    (a.(0), a.(0))
    a

let ratio num den = if den = 0.0 then 0.0 else num /. den

type counter = {
  mutable current : int;
  mutable total : int;
  mutable high : int;
}

let counter () = { current = 0; total = 0; high = 0 }

let incr c =
  c.current <- c.current + 1;
  c.total <- c.total + 1;
  if c.current > c.high then c.high <- c.current

let decr c = c.current <- c.current - 1
let value c = c.current
let total_increments c = c.total
let high_water c = c.high

let reset c =
  c.current <- 0;
  c.total <- 0;
  c.high <- 0

let allocated_bytes () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. major -. promoted) *. float_of_int (Sys.word_size / 8)
