type t = { mutable words : int array }

let bits_per_word = Sys.int_size

let create ?(capacity = 0) () =
  { words = Array.make (max 1 ((capacity + bits_per_word - 1) / bits_per_word)) 0 }

let ensure t w =
  let n = Array.length t.words in
  if w >= n then begin
    let n' = max (w + 1) (2 * n) in
    let words = Array.make n' 0 in
    Array.blit t.words 0 words 0 n;
    t.words <- words
  end

let ensure_bits t i = ensure t (i / bits_per_word)

let mem t i =
  let w = i / bits_per_word in
  w < Array.length t.words
  && t.words.(w) land (1 lsl (i mod bits_per_word)) <> 0

let set t i =
  let w = i / bits_per_word in
  ensure t w;
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits_per_word))

let add t i =
  let w = i / bits_per_word in
  ensure t w;
  let old = t.words.(w) in
  let now = old lor (1 lsl (i mod bits_per_word)) in
  t.words.(w) <- now;
  now <> old

let clear_bit t i =
  let w = i / bits_per_word in
  if w < Array.length t.words then
    t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod bits_per_word))

(* A loop rather than [Array.fill], which is a C call: the pool resets two
   sets, of a word or two each, per collected node. *)
let reset t =
  let w = t.words in
  for i = 0 to Array.length w - 1 do
    Array.unsafe_set w i 0
  done

let is_empty t =
  let rec go i = i >= Array.length t.words || (t.words.(i) = 0 && go (i + 1)) in
  go 0

let cardinal t =
  let c = ref 0 in
  for w = 0 to Array.length t.words - 1 do
    let x = ref t.words.(w) in
    while !x <> 0 do
      incr c;
      x := !x land (!x - 1)
    done
  done;
  !c

let iter f t =
  let words = t.words in
  for w = 0 to Array.length words - 1 do
    let x = ref words.(w) in
    let i = ref (w * bits_per_word) in
    while !x <> 0 do
      if !x land 1 <> 0 then f !i;
      if !x land 0xff = 0 then begin
        x := !x lsr 8;
        i := !i + 8
      end
      else begin
        x := !x lsr 1;
        i := !i + 1
      end
    done
  done

let to_list t =
  let acc = ref [] in
  iter (fun i -> acc := i :: !acc) t;
  List.rev !acc

(* Index of the highest non-zero word, or -1 for the empty set. Unions
   iterate only up to here: growing the destination to the source's raw
   capacity would let capacities ratchet (each [ensure] may double), and
   word loops would then scan ever-larger tails of zeros. *)
let top_word t =
  let rec go i = if i < 0 then -1 else if t.words.(i) <> 0 then i else go (i - 1) in
  go (Array.length t.words - 1)

let union_into ~src ~dst =
  let sn = top_word src + 1 in
  if sn > 0 then ensure dst (sn - 1);
  let dw = dst.words in
  let changed = ref false in
  for w = 0 to sn - 1 do
    let s = src.words.(w) in
    if s <> 0 then begin
      let d = dw.(w) in
      if s land lnot d <> 0 then begin
        changed := true;
        dw.(w) <- d lor s
      end
    end
  done;
  !changed

let union_into_on_new ~src ~dst f =
  let sn = top_word src + 1 in
  if sn > 0 then ensure dst (sn - 1);
  let dw = dst.words in
  let changed = ref false in
  for w = 0 to sn - 1 do
    let s = src.words.(w) in
    if s <> 0 then begin
      let d = dw.(w) in
      let fresh = s land lnot d in
      if fresh <> 0 then begin
        changed := true;
        dw.(w) <- d lor s;
        let x = ref fresh in
        let i = ref (w * bits_per_word) in
        while !x <> 0 do
          if !x land 1 <> 0 then f !i;
          if !x land 0xff = 0 then begin
            x := !x lsr 8;
            i := !i + 8
          end
          else begin
            x := !x lsr 1;
            i := !i + 1
          end
        done
      end
    end
  done;
  !changed

let words t = t.words
