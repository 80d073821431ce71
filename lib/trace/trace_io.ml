open Ids
open Velodrome_util

exception Syntax_error of int * string

let op_line names op =
  let tid t = Printf.sprintf "t%d" (Tid.to_int t) in
  match op with
  | Op.Read (t, x) ->
    Printf.sprintf "%s rd %s" (tid t) (Names.var_name names x)
  | Op.Write (t, x) ->
    Printf.sprintf "%s wr %s" (tid t) (Names.var_name names x)
  | Op.Acquire (t, m) ->
    Printf.sprintf "%s acq %s" (tid t) (Names.lock_name names m)
  | Op.Release (t, m) ->
    Printf.sprintf "%s rel %s" (tid t) (Names.lock_name names m)
  | Op.Begin (t, l) ->
    Printf.sprintf "%s begin %s" (tid t) (Names.label_name names l)
  | Op.End t -> Printf.sprintf "%s end" (tid t)

let to_string names trace =
  let buf = Buffer.create 1024 in
  Trace.iteri
    (fun _ op ->
      Buffer.add_string buf (op_line names op);
      Buffer.add_char buf '\n')
    trace;
  Buffer.contents buf

let write names trace oc = output_string oc (to_string names trace)

(* --- parsing ----------------------------------------------------------------

   One scanner serves every entry point. It finds each line's newline in
   the input buffer, then its words (split on space, tab and CR, cut at
   the first [#]) as spans of that buffer, and matches keywords and
   interns names on the spans: per line it allocates the returned
   [Op.t] and nothing else, and a name's string only on first sight. *)

let word (s : Inbuf.t) off len = Bytes.sub_string s.buf off len

let[@inline never] syntax_error lineno msg = raise (Syntax_error (lineno, msg))

(* The ids [parse_tid]'s digit loop leaves alone: signs, base prefixes,
   underscores, more than 18 digits. [int_of_string_opt] reads or
   rejects them as it always did. *)
let[@inline never] parse_tid_slow (s : Inbuf.t) lineno off len =
  match int_of_string_opt (Bytes.sub_string s.buf (off + 1) (len - 1)) with
  | Some n when n >= 0 -> Tid.of_int n
  | _ -> syntax_error lineno ("bad thread id " ^ word s off len)

let parse_tid (s : Inbuf.t) lineno off len =
  let buf = s.buf in
  if len < 2 || Bytes.unsafe_get buf off <> 't' then
    syntax_error lineno ("expected thread id like t0, got " ^ word s off len)
  else if len > 19 then parse_tid_slow s lineno off len
  else begin
    let n = ref 0 and k = ref (off + 1) in
    while
      !k < off + len
      &&
      let c = Bytes.unsafe_get buf !k in
      c >= '0' && c <= '9'
    do
      n := (10 * !n) + (Char.code (Bytes.unsafe_get buf !k) - 48);
      incr k
    done;
    if !k = off + len then Tid.of_int !n else parse_tid_slow s lineno off len
  end

let[@inline] is_sep c = c = ' ' || c = '\t' || c = '\r'

let[@inline] is2 buf off a b =
  Bytes.unsafe_get buf off = a && Bytes.unsafe_get buf (off + 1) = b

let[@inline] is3 buf off a b c =
  is2 buf off a b && Bytes.unsafe_get buf (off + 2) = c

(* The index of the newline that ends the line starting at [s.pos],
   reading on as needed; [s.lim] if the input ends first. *)
let line_end (s : Inbuf.t) =
  let stop = ref (-1) and from = ref s.pos in
  while !stop < 0 do
    let buf = s.buf and lim = s.lim in
    let i = ref !from in
    while !i < lim && Bytes.unsafe_get buf !i <> '\n' do
      incr i
    done;
    if !i < lim then stop := !i
    else begin
      let scanned = !i - s.pos in
      if Inbuf.refill s then from := s.pos + scanned else stop := s.lim
    end
  done;
  !stop

let fold names (s : Inbuf.t) ~init ~f =
  let acc = ref init in
  let line = ref 0 in
  let more = ref true in
  while !more do
    let e = line_end s in
    if e = s.lim then more := false;
    if e > s.pos || !more then begin
      incr line;
      let buf = s.buf in
      (* The first three words' spans and the word count. *)
      let n = ref 0 and o0 = ref 0 and l0 = ref 0 and o1 = ref 0 in
      let l1 = ref 0 and o2 = ref 0 and l2 = ref 0 in
      let i = ref s.pos and stop = ref e in
      while !i < !stop do
        let c = Bytes.unsafe_get buf !i in
        if is_sep c then incr i
        else if c = '#' then stop := !i
        else begin
          let j = ref (!i + 1) in
          while
            !j < !stop
            &&
            let c = Bytes.unsafe_get buf !j in
            not (is_sep c || c = '#')
          do
            incr j
          done;
          (match !n with
          | 0 -> o0 := !i; l0 := !j - !i
          | 1 -> o1 := !i; l1 := !j - !i
          | 2 -> o2 := !i; l2 := !j - !i
          | _ -> ());
          incr n;
          i := !j
        end
      done;
      let lineno = !line in
      let o1 = !o1 and l1 = !l1 in
      (match !n with
      | 0 -> ()
      | 2 when l1 = 3 && is3 buf o1 'e' 'n' 'd' ->
        acc := f !acc (Op.End (parse_tid s lineno !o0 !l0))
      | 3 ->
        let t = parse_tid s lineno !o0 !l0 in
        let o2 = !o2 and l2 = !l2 in
        let op =
          if l1 = 2 && is2 buf o1 'r' 'd' then
            Op.Read (t, Var.of_int (Symtab.intern_sub names.Names.vars buf o2 l2))
          else if l1 = 2 && is2 buf o1 'w' 'r' then
            Op.Write (t, Var.of_int (Symtab.intern_sub names.Names.vars buf o2 l2))
          else if l1 = 3 && is3 buf o1 'a' 'c' 'q' then
            Op.Acquire
              (t, Lock.of_int (Symtab.intern_sub names.Names.locks buf o2 l2))
          else if l1 = 3 && is3 buf o1 'r' 'e' 'l' then
            Op.Release
              (t, Lock.of_int (Symtab.intern_sub names.Names.locks buf o2 l2))
          else if l1 = 5 && is3 buf o1 'b' 'e' 'g' && is2 buf (o1 + 3) 'i' 'n'
          then
            Op.Begin
              (t, Label.of_int (Symtab.intern_sub names.Names.labels buf o2 l2))
          else syntax_error lineno ("unknown operation " ^ word s o1 l1)
        in
        acc := f !acc op
      | _ -> syntax_error lineno "malformed line");
      s.pos <- (if !more then e + 1 else e)
    end
  done;
  !acc

let to_list names s =
  let ops_rev = fold names s ~init:[] ~f:(fun acc op -> op :: acc) in
  (names, Trace.of_ops (List.rev ops_rev))

let of_string src = to_list (Names.create ()) (Inbuf.of_string src)

let fold_channel names ic ~init ~f = fold names (Inbuf.of_channel ic) ~init ~f

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> to_list (Names.create ()) (Inbuf.of_channel ic))

let write_file names trace path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> write names trace oc)
