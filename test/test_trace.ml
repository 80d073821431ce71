open Velodrome_trace
open Velodrome_trace.Ids
open Helpers

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* --- Op ----------------------------------------------------------------- *)

let test_conflicts_same_thread () =
  check bool "same thread ops conflict" true
    (Op.conflicts (rd t0 x) (wr t0 y));
  check bool "begin/end conflict within thread" true
    (Op.conflicts (bg t0 l0) (en t0))

let test_conflicts_variables () =
  check bool "wr/rd same var" true (Op.conflicts (wr t0 x) (rd t1 x));
  check bool "rd/rd same var commute" false (Op.conflicts (rd t0 x) (rd t1 x));
  check bool "wr/wr same var" true (Op.conflicts (wr t0 x) (wr t1 x));
  check bool "different vars commute" false (Op.conflicts (wr t0 x) (wr t1 y))

let test_conflicts_locks () =
  check bool "acq/acq same lock" true (Op.conflicts (acq t0 m) (acq t1 m));
  check bool "acq/rel same lock" true (Op.conflicts (rel t0 m) (acq t1 m));
  check bool "different locks commute" false (Op.conflicts (acq t0 m) (acq t1 n));
  check bool "lock vs var commute" false (Op.conflicts (acq t0 m) (rd t1 x))

let test_conflicts_symmetric () =
  let ops = [ rd t0 x; wr t1 x; acq t0 m; rel t1 m; bg t0 l0; en t1 ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check bool "symmetric" (Op.conflicts a b) (Op.conflicts b a))
        ops)
    ops

let test_op_tid () =
  check int "tid of read" 0 (Tid.to_int (Op.tid (rd t0 x)));
  check int "tid of end" 1 (Tid.to_int (Op.tid (en t1)))

(* --- Trace well-formedness ----------------------------------------------- *)

let test_wf_good () =
  let tr =
    Trace.of_ops
      [ acq t0 m; bg t0 l0; rd t0 x; wr t0 x; en t0; rel t0 m; acq t1 m; rel t1 m ]
  in
  check bool "well formed" true (Trace.is_well_formed tr)

let test_wf_acquire_held () =
  let tr = Trace.of_ops [ acq t0 m; acq t1 m ] in
  check bool "reacquire rejected" false (Trace.is_well_formed tr);
  match Trace.check tr with
  | Error (Trace.Acquire_held (1, _)) -> ()
  | _ -> Alcotest.fail "expected Acquire_held at index 1"

let test_wf_release_unheld () =
  let tr = Trace.of_ops [ acq t0 m; rel t1 m ] in
  match Trace.check tr with
  | Error (Trace.Release_unheld (1, _)) -> ()
  | _ -> Alcotest.fail "expected Release_unheld at index 1"

let test_wf_end_without_begin () =
  let tr = Trace.of_ops [ en t0 ] in
  match Trace.check tr with
  | Error (Trace.End_without_begin (0, _)) -> ()
  | _ -> Alcotest.fail "expected End_without_begin"

let test_wf_truncated_block_ok () =
  (* Open blocks at the end of the trace are allowed (truncated runs). *)
  let tr = Trace.of_ops [ bg t0 l0; rd t0 x ] in
  check bool "truncated ok" true (Trace.is_well_formed tr)

let test_threads () =
  let tr = Trace.of_ops [ rd t2 x; rd t0 x; rd t2 y ] in
  check (Alcotest.list int) "distinct ascending" [ 0; 2 ]
    (List.map Tid.to_int (Trace.threads tr))

(* --- Transactions --------------------------------------------------------- *)

let test_segment_basic () =
  let tr =
    Trace.of_ops [ bg t0 l0; rd t0 x; en t0; wr t1 x; bg t0 l1; en t0 ]
  in
  let seg = Txn.segment tr in
  check int "three transactions" 3 (Array.length seg.Txn.txns);
  let tx0 = seg.Txn.txns.(0) in
  check bool "labelled" true (tx0.Txn.label = Some l0);
  check (Alcotest.list int) "ops of first" [ 0; 1; 2 ]
    (Array.to_list tx0.Txn.ops);
  let tx1 = seg.Txn.txns.(1) in
  check bool "unary" true (Txn.is_unary tx1);
  check int "owner map" 0 seg.Txn.owner.(1);
  check int "owner map unary" 1 seg.Txn.owner.(3)

let test_segment_nested () =
  let tr =
    Trace.of_ops [ bg t0 l0; bg t0 l1; rd t0 x; en t0; en t0; rd t0 y ]
  in
  let seg = Txn.segment tr in
  check int "nested stays inside + trailing unary" 2
    (Array.length seg.Txn.txns);
  check (Alcotest.list int) "all five ops inside" [ 0; 1; 2; 3; 4 ]
    (Array.to_list seg.Txn.txns.(0).Txn.ops)

let test_segment_truncated () =
  let tr = Trace.of_ops [ bg t0 l0; rd t0 x ] in
  let seg = Txn.segment tr in
  check int "one transaction" 1 (Array.length seg.Txn.txns);
  check (Alcotest.list int) "both ops" [ 0; 1 ]
    (Array.to_list seg.Txn.txns.(0).Txn.ops)

let test_segment_interleaved () =
  let tr = Trace.of_ops [ bg t0 l0; wr t1 x; rd t0 x; en t0 ] in
  let seg = Txn.segment tr in
  check int "two transactions" 2 (Array.length seg.Txn.txns);
  check bool "not serial" false (Txn.serial tr)

let test_serial () =
  let tr = Trace.of_ops [ bg t0 l0; rd t0 x; en t0; wr t1 x ] in
  check bool "serial" true (Txn.serial tr)

let test_every_op_owned () =
  let tr = Gen.run (Velodrome_util.Rng.create 99) Gen.default in
  let seg = Txn.segment tr in
  Array.iteri
    (fun i owner ->
      check bool (Printf.sprintf "op %d owned" i) true
        (owner >= 0 && owner < Array.length seg.Txn.txns))
    seg.Txn.owner

(* --- Trace serialization -------------------------------------------------- *)

let test_io_roundtrip_fixed () =
  let src = "t0 begin Set.add\nt0 rd elems\n# a comment\n\nt1 wr elems\nt0 end\n" in
  let names, tr = Trace_io.of_string src in
  check int "four ops" 4 (Trace.length tr);
  check Alcotest.string "stable reprint" (Trace_io.to_string names tr)
    "t0 begin Set.add\nt0 rd elems\nt1 wr elems\nt0 end\n"

let test_io_syntax_errors () =
  let fails s =
    match Trace_io.of_string s with
    | exception Trace_io.Syntax_error _ -> true
    | _ -> false
  in
  check bool "bad tid" true (fails "x0 rd a\n");
  check bool "unknown op" true (fails "t0 frobnicate a\n");
  check bool "too many fields" true (fails "t0 rd a b\n");
  check bool "inline comment ok" false (fails "t0 rd a # trailing\n")

let test_io_error_line_numbers () =
  (* Malformed input must be blamed on the right 1-based line, counting
     blank and comment lines. *)
  let lineno s =
    match Trace_io.of_string s with
    | exception Trace_io.Syntax_error (n, _) -> n
    | _ -> -1
  in
  check int "error on line 1" 1 (lineno "bogus\n");
  check int "trailing garbage on last line" 3
    (lineno "t0 rd x\nt0 wr x\nt0 rd x extra\n");
  check int "unterminated final line" 3 (lineno "t0 rd x\n\nt0 frob");
  check int "blanks and comments counted" 4 (lineno "\n# c\n\nt0 oops\n")

let test_io_crlf () =
  let _, tr = Trace_io.of_string "t0 rd x\r\nt1 wr x\r\n" in
  check int "CRLF lines parse" 2 (Trace.length tr)

let test_io_unterminated_final_op () =
  (* A final line without a newline still yields its operation. *)
  let _, tr = Trace_io.of_string "t0 rd x\nt1 wr x" in
  check int "both ops" 2 (Trace.length tr)

let test_io_fold_channel_line_numbers () =
  (* The streaming reader reports the same line numbers as of_string. *)
  let path = Filename.temp_file "velodrome" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "t0 rd x\n# fine\nt0 frobnicate x\n";
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match
            Trace_io.fold_channel (Names.create ()) ic ~init:0
              ~f:(fun acc _ -> acc + 1)
          with
          | exception Trace_io.Syntax_error (3, _) -> ()
          | exception Trace_io.Syntax_error (n, _) ->
            Alcotest.failf "blamed line %d, expected 3" n
          | _ -> Alcotest.fail "malformed line accepted"))

let test_io_file_roundtrip () =
  let tr = Gen.run (Velodrome_util.Rng.create 31) Gen.default in
  let names = Names.create () in
  let path = Filename.temp_file "velodrome" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_io.write_file names tr path;
      let names2, tr2 = Trace_io.read_file path in
      check Alcotest.string "file round-trip"
        (Trace_io.to_string names tr)
        (Trace_io.to_string names2 tr2))

let prop_io_roundtrip =
  QCheck.Test.make ~count:200 ~name:"trace_io round-trips generated traces"
    (trace_arbitrary Gen.default) (fun tr ->
      let names = Names.create () in
      let s1 = Trace_io.to_string names tr in
      let names2, tr2 = Trace_io.of_string s1 in
      Trace_io.to_string names2 tr2 = s1 && Trace.length tr2 = Trace.length tr)

(* --- Scanner against the line-splitting parser ------------------------------- *)

(* The parser [Trace_io] used before its in-place scanner, kept verbatim
   as the reference: split each line on '\n', cut it at the first '#',
   split on space, tab and CR, then match the word list. *)
module Reference = struct
  let parse_tid lineno s =
    if String.length s >= 2 && s.[0] = 't' then
      match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
      | Some n when n >= 0 -> Tid.of_int n
      | _ -> raise (Trace_io.Syntax_error (lineno, "bad thread id " ^ s))
    else
      raise
        (Trace_io.Syntax_error
           (lineno, "expected thread id like t0, got " ^ s))

  let split_words s =
    String.split_on_char ' ' s
    |> List.concat_map (String.split_on_char '\t')
    |> List.concat_map (String.split_on_char '\r')
    |> List.filter (fun w -> w <> "")

  let parse_line names ~lineno line =
    let line =
      match String.index_opt line '#' with
      | Some k -> String.sub line 0 k
      | None -> line
    in
    match split_words line with
    | [] -> None
    | [ t; "end" ] -> Some (Op.End (parse_tid lineno t))
    | [ t; kind; name ] ->
      let t = parse_tid lineno t in
      let op =
        match kind with
        | "rd" -> Op.Read (t, Names.var names name)
        | "wr" -> Op.Write (t, Names.var names name)
        | "acq" -> Op.Acquire (t, Names.lock names name)
        | "rel" -> Op.Release (t, Names.lock names name)
        | "begin" -> Op.Begin (t, Names.label names name)
        | k -> raise (Trace_io.Syntax_error (lineno, "unknown operation " ^ k))
      in
      Some op
    | _ -> raise (Trace_io.Syntax_error (lineno, "malformed line"))

  let iter names src emit =
    List.iteri
      (fun i line -> Option.iter emit (parse_line names ~lineno:(i + 1) line))
      (String.split_on_char '\n' src)
end

let dump_names (names : Names.t) =
  let dump tbl =
    let out = ref [] in
    Velodrome_util.Symtab.iter tbl (fun id s -> out := (id, s) :: !out);
    List.rev !out
  in
  (dump names.Names.vars, dump names.Names.locks, dump names.Names.labels)

(* What a parse leaves: the operations read before it stopped, the
   names interned and the error, if any. *)
let outcome parse src =
  let names = Names.create () in
  let ops = ref [] in
  let error =
    match parse names src (fun op -> ops := op :: !ops) with
    | () -> None
    | exception Trace_io.Syntax_error (l, m) -> Some (l, m)
  in
  (List.rev !ops, dump_names names, error)

let reference_outcome = outcome Reference.iter

let with_text_file src f =
  let path = Filename.temp_file "velodrome" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc src);
      f path)

let channel_outcome =
  outcome (fun names src emit ->
      with_text_file src (fun path ->
          In_channel.with_open_bin path (fun ic ->
              Trace_io.fold_channel names ic ~init:() ~f:(fun () op -> emit op))))

(* [fold_channel] must match the reference on everything; [of_string]
   on the trace and names, or on the error. *)
let same_as_reference src =
  let ((_, _, error) as expected) = reference_outcome src in
  channel_outcome src = expected
  &&
  match Trace_io.of_string src with
  | names, tr ->
    error = None && (Trace.to_list tr, dump_names names, None) = expected
  | exception Trace_io.Syntax_error (l, m) -> error = Some (l, m)

let scanner_tokens =
  [|
    "t0"; "t"; "x"; "t0x1f"; "t1_0"; "t-0"; "t+3"; "t7";
    "t1234567890123456789"; "t9999999999999999999";
    "t12345678901234567890"; "t00000000000000000000042";
    "rd"; "wr"; "acq"; "rel"; "begin"; "end"; "frob"; "RD"; "#"; "x#y";
    "a"; "b"; "Set.add"; "\xc3\xa9t\xc3\xa9"; "\x0b"; "v\x0bw"; "\000";
    "n\000m"; "\xff";
  |]

let gen_scanner_input =
  let open QCheck.Gen in
  let tid = oneofa [| "t0"; "t1"; "t7"; "t0x1f"; "t1_0"; "t-0"; "t+3"; "t" |] in
  let kw = oneofa [| "rd"; "wr"; "acq"; "rel"; "begin"; "end" |] in
  let name = oneofa [| "a"; "b"; "x#y"; "Set.add"; "\xc3\xa9t\xc3\xa9"; "n\000m" |] in
  let any = oneofa scanner_tokens in
  let slot i =
    frequency
      [ (6, match i with 0 -> tid | 1 -> kw | _ -> name); (1, any) ]
  in
  let sep = oneofa [| " "; "\t"; "\r"; ""; "  "; " \t"; "\r " |] in
  (* Words and separators alternate; an empty separator fuses two
     words into one. *)
  let line =
    int_range 0 4 >>= fun n ->
    flatten_l (List.init n slot) >>= fun words ->
    flatten_l (List.init (n + 1) (fun _ -> sep)) >|= fun seps ->
    List.hd seps
    ^ String.concat ""
        (List.concat (List.map2 (fun w s -> [ w; s ]) words (List.tl seps)))
  in
  list_size (int_range 0 12) line >>= fun lines ->
  bool >|= fun final_newline ->
  String.concat "\n" lines ^ if final_newline && lines <> [] then "\n" else ""

let prop_scanner_differential =
  QCheck.Test.make ~count:1000
    ~name:"text scanner = line-splitting parser (ops, names, errors)"
    (QCheck.make ~print:String.escaped gen_scanner_input)
    same_as_reference

let check_same_as_reference what src =
  let expected = reference_outcome src in
  let got = channel_outcome src in
  let ops (o, _, _) = List.length o and err (_, _, e) = e in
  check int (what ^ ": ops") (ops expected) (ops got);
  check
    Alcotest.(option (pair int string))
    (what ^ ": error") (err expected) (err got);
  check bool (what ^ ": same outcome") true (got = expected)

(* A line longer than the buffer's first chunk: the buffer grows. *)
let test_scanner_long_line () =
  let long = String.make (Inbuf.chunk + 1000) 'n' in
  let src = "t0 rd a\nt1 wr " ^ long ^ "\nt2 rd " ^ long ^ "\nt3 frob x\n" in
  check_same_as_reference "long line" src;
  let _, (vars, _, _), _ = channel_outcome src in
  check int "two names" 2 (List.length vars)

(* A line straddling the first chunk boundary, at every split point of
   its bytes (and CRLF endings, so CR lands on either side too). *)
let test_scanner_chunk_boundary () =
  let line = "t12 acq some.lock\r\n" in
  for d = 0 to String.length line do
    let pad = Inbuf.chunk - d - 2 in
    let src = "#" ^ String.make pad 'p' ^ "\n" ^ line ^ "t3 rel some.lock\nt4 oops\n" in
    check_same_as_reference (Printf.sprintf "split %d" d) src
  done

(* --- Generator properties -------------------------------------------------- *)

let prop_gen_well_formed =
  QCheck.Test.make ~count:200 ~name:"generated traces are well-formed"
    (trace_arbitrary Gen.default) Trace.is_well_formed

let prop_gen_small_well_formed =
  QCheck.Test.make ~count:200 ~name:"small generated traces are well-formed"
    (trace_arbitrary Gen.small) Trace.is_well_formed

let prop_gen_closes_blocks =
  QCheck.Test.make ~count:100 ~name:"close_trailing leaves no open blocks"
    (trace_arbitrary Gen.default) (fun tr ->
      let seg = Txn.segment tr in
      Array.for_all
        (fun tx ->
          match tx.Txn.label with
          | None -> true
          | Some _ ->
            (* Labelled transactions must end with a matching End op. *)
            let last = tx.Txn.ops.(Array.length tx.Txn.ops - 1) in
            (match Trace.get tr last with Op.End _ -> true | _ -> false))
        seg.Txn.txns)

let prop_segmentation_partitions =
  QCheck.Test.make ~count:100 ~name:"segmentation partitions the trace"
    (trace_arbitrary Gen.default) (fun tr ->
      let seg = Txn.segment tr in
      let counted = Array.make (Array.length seg.Txn.txns) 0 in
      Array.iter (fun owner -> counted.(owner) <- counted.(owner) + 1)
        seg.Txn.owner;
      Array.for_all2
        (fun tx c -> Array.length tx.Txn.ops = c)
        seg.Txn.txns counted)

let suite =
  ( "trace",
    [
      Alcotest.test_case "conflicts same thread" `Quick test_conflicts_same_thread;
      Alcotest.test_case "conflicts variables" `Quick test_conflicts_variables;
      Alcotest.test_case "conflicts locks" `Quick test_conflicts_locks;
      Alcotest.test_case "conflicts symmetric" `Quick test_conflicts_symmetric;
      Alcotest.test_case "op tid" `Quick test_op_tid;
      Alcotest.test_case "wf good" `Quick test_wf_good;
      Alcotest.test_case "wf acquire held" `Quick test_wf_acquire_held;
      Alcotest.test_case "wf release unheld" `Quick test_wf_release_unheld;
      Alcotest.test_case "wf end without begin" `Quick test_wf_end_without_begin;
      Alcotest.test_case "wf truncated block" `Quick test_wf_truncated_block_ok;
      Alcotest.test_case "threads" `Quick test_threads;
      Alcotest.test_case "segment basic" `Quick test_segment_basic;
      Alcotest.test_case "segment nested" `Quick test_segment_nested;
      Alcotest.test_case "segment truncated" `Quick test_segment_truncated;
      Alcotest.test_case "segment interleaved" `Quick test_segment_interleaved;
      Alcotest.test_case "serial" `Quick test_serial;
      Alcotest.test_case "every op owned" `Quick test_every_op_owned;
      Alcotest.test_case "trace_io roundtrip" `Quick test_io_roundtrip_fixed;
      Alcotest.test_case "trace_io errors" `Quick test_io_syntax_errors;
      Alcotest.test_case "trace_io error lines" `Quick
        test_io_error_line_numbers;
      Alcotest.test_case "trace_io crlf" `Quick test_io_crlf;
      Alcotest.test_case "trace_io no final newline" `Quick
        test_io_unterminated_final_op;
      Alcotest.test_case "trace_io fold_channel lines" `Quick
        test_io_fold_channel_line_numbers;
      Alcotest.test_case "trace_io file roundtrip" `Quick
        test_io_file_roundtrip;
      QCheck_alcotest.to_alcotest prop_io_roundtrip;
      QCheck_alcotest.to_alcotest prop_scanner_differential;
      Alcotest.test_case "scanner long line" `Quick test_scanner_long_line;
      Alcotest.test_case "scanner chunk boundary" `Quick
        test_scanner_chunk_boundary;
      QCheck_alcotest.to_alcotest prop_gen_well_formed;
      QCheck_alcotest.to_alcotest prop_gen_small_well_formed;
      QCheck_alcotest.to_alcotest prop_gen_closes_blocks;
      QCheck_alcotest.to_alcotest prop_segmentation_partitions;
    ] )
