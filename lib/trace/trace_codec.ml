open Ids
open Velodrome_util

exception Corrupt of string

let magic = "VELB"
let end_marker = "VEND"
let version = 1

(* --- primitive encoders ---------------------------------------------------- *)

(* LEB128: seven payload bits per byte, high bit = continuation. *)
let output_varint oc n =
  if n < 0 then invalid_arg "Trace_codec: negative varint";
  let rec go n =
    if n < 0x80 then output_byte oc n
    else begin
      output_byte oc (0x80 lor (n land 0x7f));
      go (n lsr 7)
    end
  in
  go n

(* Zigzag maps small negative deltas to small unsigned codes. *)
let zigzag n = (n lsl 1) lxor (n asr (Sys.int_size - 1))
let unzigzag u = (u lsr 1) lxor (-(u land 1))
let output_zigzag oc n = output_varint oc (zigzag n)

let output_name oc s =
  output_varint oc (String.length s);
  output_string oc s

let output_dict oc tbl =
  output_varint oc (Symtab.size tbl);
  Symtab.iter tbl (fun _ s -> output_name oc s)

let op_code = function
  | Op.Read _ -> 0
  | Op.Write _ -> 1
  | Op.Acquire _ -> 2
  | Op.Release _ -> 3
  | Op.Begin _ -> 4
  | Op.End _ -> 5

(* --- encoding --------------------------------------------------------------- *)

let to_channel (names : Names.t) trace oc =
  output_string oc magic;
  output_varint oc version;
  output_dict oc names.Names.vars;
  output_dict oc names.Names.locks;
  output_dict oc names.Names.labels;
  output_varint oc 0 (* the reserved dictionary, always empty *);
  let volatiles =
    Hashtbl.fold (fun id () acc -> id :: acc) names.Names.volatiles []
    |> List.sort compare
  in
  output_varint oc (List.length volatiles);
  let prev = ref (-1) in
  List.iter
    (fun id ->
      output_varint oc (id - !prev);
      prev := id)
    volatiles;
  output_varint oc (Trace.length trace);
  let last_tid = ref 0 in
  let last_var = ref 0 in
  let last_lock = ref 0 in
  let last_label = ref 0 in
  let operand oc last id =
    output_zigzag oc (id - !last);
    last := id
  in
  Trace.iteri
    (fun _ op ->
      let tid = Tid.to_int (Op.tid op) in
      let same = tid = !last_tid in
      output_byte oc (op_code op lor if same then 0x08 else 0);
      if not same then begin
        output_zigzag oc (tid - !last_tid);
        last_tid := tid
      end;
      match op with
      | Op.Read (_, x) | Op.Write (_, x) ->
        operand oc last_var (Var.to_int x)
      | Op.Acquire (_, m) | Op.Release (_, m) ->
        operand oc last_lock (Lock.to_int m)
      | Op.Begin (_, l) -> operand oc last_label (Label.to_int l)
      | Op.End _ -> ())
    trace;
  output_string oc end_marker

let write_file names trace path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> to_channel names trace oc)

(* --- decoding --------------------------------------------------------------- *)

(* A reader pulls its input through an [Inbuf.t]: one [input] call per
   chunk instead of one locked channel call per byte. *)
let corrupt_at (s : Inbuf.t) fmt =
  Printf.ksprintf
    (fun msg ->
      raise (Corrupt (Printf.sprintf "%s (at byte %d)" msg (s.base + s.pos))))
    fmt

let[@inline never] input_byte_slow (s : Inbuf.t) =
  if not (Inbuf.refill s) then corrupt_at s "truncated input";
  s.pos <- 1;
  Char.code (Bytes.unsafe_get s.buf 0)

let[@inline] input_byte' (s : Inbuf.t) =
  let pos = s.pos in
  if pos < s.lim then begin
    s.pos <- pos + 1;
    Char.code (Bytes.unsafe_get s.buf pos)
  end
  else input_byte_slow s

(* Exactly [n] bytes, copied out chunk by chunk so allocation stays bounded
   by the bytes actually present; [None] (with everything consumed) if the
   input ends first. *)
let input_string (s : Inbuf.t) n =
  if n <= s.lim - s.pos then begin
    let str = Bytes.sub_string s.buf s.pos n in
    s.pos <- s.pos + n;
    Some str
  end
  else begin
    let out = Buffer.create (s.lim - s.pos) in
    let rec go need =
      let avail = min need (s.lim - s.pos) in
      Buffer.add_subbytes out s.buf s.pos avail;
      s.pos <- s.pos + avail;
      if avail = need then Some (Buffer.contents out)
      else if Inbuf.refill s then go (need - avail)
      else None
    in
    go n
  end

(* The continuation bytes of a varint whose first byte was [b]. *)
let[@inline never] input_varint_slow s b =
  let acc = ref (b land 0x7f) and shift = ref 7 and more = ref true in
  while !more do
    if !shift > Sys.int_size - 7 then corrupt_at s "varint too large";
    let b = input_byte' s in
    acc := !acc lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    more := b land 0x80 <> 0
  done;
  !acc

(* Nearly every tag and operand delta is one byte: that case is inlined
   into [input_op], with no call unless the buffer needs a refill. *)
let[@inline] input_varint s =
  let b = input_byte' s in
  if b < 0x80 then b else input_varint_slow s b

let[@inline] input_zigzag s = unzigzag (input_varint s)

let input_name s =
  let len = input_varint s in
  if len < 0 then corrupt_at s "bad name length %d" len;
  match input_string s len with
  | Some name -> name
  | None -> corrupt_at s "truncated name (%d bytes)" len

let input_dict s tbl =
  let count = input_varint s in
  for i = 0 to count - 1 do
    let name = input_name s in
    if Symtab.intern tbl name <> i then
      corrupt_at s "duplicate dictionary entry %S" name
  done

type reader = {
  src : Inbuf.t;
  names : Names.t;
  length : int;
  mutable last_tid : int;
  mutable last_var : int;
  mutable last_lock : int;
  mutable last_label : int;
  mutable consumed : bool;
}

let reader_of_channel ic =
  let s = Inbuf.of_channel ic in
  (match input_string s (String.length magic) with
  | Some m when m = magic -> ()
  | Some m -> corrupt_at s "bad magic %S (not a binary trace)" m
  | None -> corrupt_at s "truncated header");
  let v = input_varint s in
  if v <> version then
    corrupt_at s "unsupported format version %d (expected %d)" v version;
  let names = Names.create () in
  input_dict s names.Names.vars;
  input_dict s names.Names.locks;
  input_dict s names.Names.labels;
  input_dict s (Symtab.create ()) (* reserved: checked, then dropped *);
  let nvol = input_varint s in
  let prev = ref (-1) in
  for _ = 1 to nvol do
    let delta = input_varint s in
    if delta = 0 then corrupt_at s "duplicate volatile id";
    prev := !prev + delta;
    Hashtbl.replace names.Names.volatiles !prev ()
  done;
  let length = input_varint s in
  {
    src = s;
    names;
    length;
    last_tid = 0;
    last_var = 0;
    last_lock = 0;
    last_label = 0;
    consumed = false;
  }

let reader_names r = r.names

(* The running id of one operand kind plus the next delta. *)
let input_id s kind last =
  let id = last + input_zigzag s in
  if id < 0 then corrupt_at s "negative %s id" kind;
  id

(* Operand deltas update the reader's running ids in place: no closure or
   option is built per event, only the returned [Op.t]. *)
let input_op r =
  let s = r.src in
  let tag = input_byte' s in
  if tag land 0xf0 <> 0 then corrupt_at s "bad event tag 0x%02x" tag;
  if tag land 0x08 = 0 then r.last_tid <- input_id s "thread" r.last_tid;
  let t = Tid.of_int r.last_tid in
  match tag land 0x07 with
  | (0 | 1) as code ->
    r.last_var <- input_id s "variable" r.last_var;
    let x = Var.of_int r.last_var in
    if code = 0 then Op.Read (t, x) else Op.Write (t, x)
  | (2 | 3) as code ->
    r.last_lock <- input_id s "lock" r.last_lock;
    let m = Lock.of_int r.last_lock in
    if code = 2 then Op.Acquire (t, m) else Op.Release (t, m)
  | 4 ->
    r.last_label <- input_id s "label" r.last_label;
    Op.Begin (t, Label.of_int r.last_label)
  | 5 -> Op.End t
  | c -> corrupt_at s "unknown opcode %d" c

let check_end r =
  let s : Inbuf.t = r.src in
  (match input_string s (String.length end_marker) with
  | Some m when m = end_marker -> ()
  | Some m -> corrupt_at s "bad end marker %S (file damaged?)" m
  | None -> corrupt_at s "truncated input: missing end marker");
  if s.pos < s.lim || Inbuf.refill s then begin
    s.pos <- s.pos + 1;
    corrupt_at s "trailing garbage after end marker"
  end

let iter_events r f =
  if r.consumed then
    invalid_arg "Trace_codec.iter_events: reader already used";
  r.consumed <- true;
  for index = 0 to r.length - 1 do
    f (Event.make ~index (input_op r))
  done;
  check_end r

let of_channel ic =
  let r = reader_of_channel ic in
  let ops_rev = ref [] in
  iter_events r (fun e -> ops_rev := e.Event.op :: !ops_rev);
  (r.names, Trace.of_ops (List.rev !ops_rev))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> of_channel ic)

let is_binary_file path =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic (String.length magic) with
        | m -> m = magic
        | exception End_of_file -> false)
