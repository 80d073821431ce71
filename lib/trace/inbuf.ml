type t = {
  ic : in_channel option;
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable lim : int;
  mutable base : int;
}

let chunk = 4096

let of_channel ic =
  let base = pos_in ic in
  let size =
    match in_channel_length ic - base with
    | n when n > 0 -> min chunk n
    | _ | (exception Sys_error _) -> chunk
  in
  { ic = Some ic; buf = Bytes.create size; pos = 0; lim = 0; base }

let of_string s =
  {
    ic = None;
    buf = Bytes.unsafe_of_string s;
    pos = 0;
    lim = String.length s;
    base = 0;
  }

let refill s =
  match s.ic with
  | None -> false
  | Some ic ->
    let keep = s.lim - s.pos in
    if s.pos > 0 then begin
      Bytes.blit s.buf s.pos s.buf 0 keep;
      s.base <- s.base + s.pos;
      s.pos <- 0;
      s.lim <- keep
    end;
    if keep = Bytes.length s.buf then begin
      let bigger = Bytes.create (2 * keep) in
      Bytes.blit s.buf 0 bigger 0 keep;
      s.buf <- bigger
    end;
    let n = input ic s.buf s.lim (min chunk (Bytes.length s.buf - s.lim)) in
    s.lim <- s.lim + n;
    n > 0
