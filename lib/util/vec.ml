type 'a t = { mutable data : 'a array; mutable len : int }

(* The array is allocated lazily on first push because there is no dummy
   element of type 'a to fill it with; [capacity] is advisory only. *)
let create ?capacity:_ () = { data = [||]; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

let push t x =
  let cap = Array.length t.data in
  if t.len = cap then begin
    let ncap = if cap = 0 then 16 else 2 * cap in
    let data = Array.make ncap x in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get: index out of bounds";
  t.data.(i)

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Vec.set: index out of bounds";
  t.data.(i) <- x

let[@inline] unsafe_get t i = Array.unsafe_get t.data i
let unsafe_set t i x = Array.unsafe_set t.data i x

let last t = if t.len = 0 then None else Some t.data.(t.len - 1)

let pop t =
  if t.len = 0 then None
  else begin
    t.len <- t.len - 1;
    Some t.data.(t.len)
  end

let clear t = t.len <- 0

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold_left f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let exists p t =
  let rec go i = i < t.len && (p t.data.(i) || go (i + 1)) in
  go 0

let to_array t = Array.sub t.data 0 t.len
let to_list t = Array.to_list (to_array t)

let of_array arr =
  let t = create () in
  Array.iter (push t) arr;
  t

let of_list l = of_array (Array.of_list l)
