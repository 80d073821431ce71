(* [names] holds the strings in id order. [index] is an open-addressing
   table with linear probing over them: each slot holds [id + 1], or 0
   when empty; its length is a power of two, at least twice [count]. *)
type t = {
  mutable names : string array;
  mutable count : int;
  mutable index : int array;
}

let create () = { names = Array.make 16 ""; count = 0; index = Array.make 32 0 }

(* FNV-1a over the bytes, folded so the low bits the mask keeps depend
   on every byte. *)
let hash b off len =
  let h = ref 0x811c9dc5 in
  for k = off to off + len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b k)) * 0x100000001b3
  done;
  !h lxor (!h lsr 32)

let same name b off len =
  String.length name = len
  &&
  let k = ref 0 in
  while !k < len && String.unsafe_get name !k = Bytes.unsafe_get b (off + !k) do
    incr k
  done;
  !k = len

(* The slot holding [b.[off .. off + len - 1]], or the empty slot where
   it belongs. *)
let slot t b off len =
  let index = t.index in
  let mask = Array.length index - 1 in
  let i = ref (hash b off len land mask) in
  while
    let e = Array.unsafe_get index !i in
    e <> 0 && not (same (Array.unsafe_get t.names (e - 1)) b off len)
  do
    i := (!i + 1) land mask
  done;
  !i

let rehash t =
  let index = Array.make (2 * Array.length t.index) 0 in
  let mask = Array.length index - 1 in
  for id = 0 to t.count - 1 do
    let s = Bytes.unsafe_of_string t.names.(id) in
    let i = ref (hash s 0 (Bytes.length s) land mask) in
    while index.(!i) <> 0 do
      i := (!i + 1) land mask
    done;
    index.(!i) <- id + 1
  done;
  t.index <- index

let[@inline never] add t i s =
  let id = t.count in
  if id = Array.length t.names then begin
    let names = Array.make (2 * id) "" in
    Array.blit t.names 0 names 0 id;
    t.names <- names
  end;
  t.names.(id) <- s;
  t.index.(i) <- id + 1;
  t.count <- id + 1;
  if 2 * t.count > Array.length t.index then rehash t;
  id

let intern_sub t b off len =
  let i = slot t b off len in
  match Array.unsafe_get t.index i with
  | 0 -> add t i (Bytes.sub_string b off len)
  | e -> e - 1

let intern t s =
  let b = Bytes.unsafe_of_string s in
  let i = slot t b 0 (Bytes.length b) in
  match t.index.(i) with 0 -> add t i s | e -> e - 1

let find t s =
  let b = Bytes.unsafe_of_string s in
  match t.index.(slot t b 0 (Bytes.length b)) with
  | 0 -> None
  | e -> Some (e - 1)

let name t id =
  if id < 0 || id >= t.count then invalid_arg "Symtab.name: unknown id";
  t.names.(id)

let size t = t.count

let iter t f =
  for id = 0 to t.count - 1 do
    f id t.names.(id)
  done
