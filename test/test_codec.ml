(* Tests for the binary trace codec: exact round-trips (trace and name
   environment), the pinned wire format, and the negative paths — bad
   magic, bad version, truncation, damaged tags, trailing garbage. *)

open Velodrome_trace
open Velodrome_util
open Helpers

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let with_temp_file f =
  let path = Filename.temp_file "velodrome_codec" ".velb" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let roundtrip names tr =
  with_temp_file (fun path ->
      Trace_codec.write_file names tr path;
      Trace_codec.read_file path)

let encode_bytes names tr =
  with_temp_file (fun path ->
      Trace_codec.write_file names tr path;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic)))

let decode_bytes s =
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      output_string oc s;
      close_out oc;
      Trace_codec.read_file path)

let corrupt_message s =
  match decode_bytes s with
  | exception Trace_codec.Corrupt msg -> Some msg
  | _ -> None

let symtab_dump tbl =
  let out = ref [] in
  Symtab.iter tbl (fun id s -> out := (id, s) :: !out);
  List.rev !out

let volatile_dump (names : Names.t) =
  Hashtbl.fold (fun id () acc -> id :: acc) names.Names.volatiles []
  |> List.sort compare

let names_equal a b =
  symtab_dump a.Names.vars = symtab_dump b.Names.vars
  && symtab_dump a.Names.locks = symtab_dump b.Names.locks
  && symtab_dump a.Names.labels = symtab_dump b.Names.labels
  && volatile_dump a = volatile_dump b

(* --- round-trips ------------------------------------------------------------ *)

let test_empty_trace () =
  let names, tr = roundtrip (Names.create ()) (Trace.of_ops []) in
  check int "no events" 0 (Trace.length tr);
  check bool "empty names" true (names_equal names (Names.create ()))

let test_single_event () =
  let tr = Trace.of_ops [ wr t0 x ] in
  let _, tr' = roundtrip (Names.create ()) tr in
  check bool "one write back" true (Trace.to_list tr' = Trace.to_list tr)

let test_names_preserved_exactly () =
  (* The dictionary must carry every interned name — even ones no event
     mentions — plus the volatile set, so text -> binary -> text is the
     identity. *)
  let names = Names.create () in
  let v1 = Names.var names "balance" in
  let _v2 = Names.var names "unused" in
  let m = Names.lock names "account" in
  let l = Names.label names "Teller.deposit" in
  Names.set_volatile names v1;
  let tr = Trace.of_ops [ Op.Begin (t0, l); Op.Acquire (t0, m); Op.Write (t0, v1); Op.Release (t0, m); Op.End t0 ] in
  let names', tr' = roundtrip names tr in
  check bool "ops equal" true (Trace.to_list tr' = Trace.to_list tr);
  check bool "name environment equal" true (names_equal names names');
  check bool "volatile survives" true (Names.is_volatile names' v1)

let prop_roundtrip_exact =
  QCheck.Test.make ~count:300
    ~name:"binary codec round-trips generated traces and name tables"
    (trace_arbitrary Velodrome_trace.Gen.default)
    (fun tr ->
      (* Render through the text format first so the name environment is
         populated the way real recorded traces are. *)
      let names, tr =
        Trace_io.of_string (Trace_io.to_string (Names.create ()) tr)
      in
      let names', tr' = roundtrip names tr in
      Trace.to_list tr' = Trace.to_list tr && names_equal names names')

let prop_roundtrip_matches_text =
  QCheck.Test.make ~count:100
    ~name:"text -> binary -> text is the identity on canonical traces"
    (trace_arbitrary Velodrome_trace.Gen.default)
    (fun tr ->
      let names, tr =
        Trace_io.of_string (Trace_io.to_string (Names.create ()) tr)
      in
      let names', tr' = roundtrip names tr in
      Trace_io.to_string names' tr' = Trace_io.to_string names tr)

(* --- wire format ------------------------------------------------------------ *)

(* [wr t0 x] with an empty name environment pins the layout:
   magic(4) version(1) dicts(4x1) volatiles(1) count(1) tag(1)
   var-delta(1) end-marker(4) = 17 bytes. *)
let tiny_bytes () = encode_bytes (Names.create ()) (Trace.of_ops [ wr t0 x ])

let test_wire_format () =
  let s = tiny_bytes () in
  check int "17 bytes" 17 (String.length s);
  check Alcotest.string "magic" "VELB" (String.sub s 0 4);
  check int "version" Trace_codec.version (Char.code s.[4]);
  (* tag: opcode 1 (write), bit 3 set (same thread as initial state) *)
  check int "tag byte" 0x09 (Char.code s.[11]);
  check Alcotest.string "end marker" "VEND" (String.sub s 13 4)

let set_byte s i c =
  let b = Bytes.of_string s in
  Bytes.set b i c;
  Bytes.to_string b

(* --- negative paths --------------------------------------------------------- *)

let contains msg needle =
  let n = String.length needle and m = String.length msg in
  let rec go i = i + n <= m && (String.sub msg i n = needle || go (i + 1)) in
  go 0

let test_bad_magic () =
  let s = set_byte (tiny_bytes ()) 0 'X' in
  match corrupt_message s with
  | Some msg -> check bool "mentions magic" true (contains msg "magic")
  | None -> Alcotest.fail "bad magic accepted"

let test_bad_version () =
  let s = set_byte (tiny_bytes ()) 4 '\x2a' in
  match corrupt_message s with
  | Some msg -> check bool "mentions version" true (contains msg "version")
  | None -> Alcotest.fail "bad version accepted"

let test_truncations () =
  (* Every proper prefix must be rejected, whatever byte it stops at. *)
  let s = tiny_bytes () in
  for len = 0 to String.length s - 1 do
    match corrupt_message (String.sub s 0 len) with
    | Some _ -> ()
    | None -> Alcotest.failf "truncation to %d bytes accepted" len
  done

let test_bad_tag () =
  let s = set_byte (tiny_bytes ()) 11 '\xf1' in
  match corrupt_message s with
  | Some msg -> check bool "mentions tag" true (contains msg "tag")
  | None -> Alcotest.fail "reserved tag bits accepted"

let test_bad_end_marker () =
  let s = set_byte (tiny_bytes ()) 13 'X' in
  match corrupt_message s with
  | Some msg -> check bool "mentions marker" true (contains msg "marker")
  | None -> Alcotest.fail "damaged end marker accepted"

let test_trailing_garbage () =
  match corrupt_message (tiny_bytes () ^ "\x00") with
  | Some msg -> check bool "mentions trailing" true (contains msg "trailing")
  | None -> Alcotest.fail "trailing garbage accepted"

let test_duplicate_dictionary () =
  (* Hand-built header whose variable dictionary interns "a" twice. *)
  let s = "VELB\x01\x02\x01a\x01a" in
  match corrupt_message s with
  | Some msg -> check bool "mentions duplicate" true (contains msg "duplicate")
  | None -> Alcotest.fail "duplicate dictionary entry accepted"

let test_truncated_big_trace () =
  (* A realistic generated trace chopped mid-stream. *)
  let tr = Gen.run (Velodrome_util.Rng.create 7) Gen.default in
  let names, tr = Trace_io.of_string (Trace_io.to_string (Names.create ()) tr) in
  let s = encode_bytes names tr in
  let cut = String.length s * 2 / 3 in
  match corrupt_message (String.sub s 0 cut) with
  | Some msg -> check bool "truncated" true (contains msg "truncated")
  | None -> Alcotest.fail "truncated stream accepted"

let test_hostile_name_length () =
  (* A 13-byte header declaring a ~2^46-byte name: the decoder must report
     the truncation instead of allocating what the length promises. *)
  let huge = "VELB\x01\x01\xff\xff\xff\xff\xff\xff\x0f" in
  (match corrupt_message huge with
  | Some msg ->
    check bool "truncated name" true
      (String.starts_with ~prefix:"truncated name (" msg);
    check bool "offset" true (String.ends_with ~suffix:"(at byte 13)" msg)
  | None -> Alcotest.fail "huge name length accepted");
  (* Nine varint bytes overflow into a negative length. *)
  let negative = "VELB\x01\x01" ^ String.make 8 '\xff' ^ "\x7f" in
  match corrupt_message negative with
  | Some msg -> check bool "bad length" true (contains msg "bad name length")
  | None -> Alcotest.fail "negative name length accepted"

(* --- refill boundaries ------------------------------------------------------ *)

(* The decoder reads its input in chunks of this many bytes. *)
let chunk = Inbuf.chunk

(* A generated trace whose encoding spans more than three chunks. *)
let big_encoding =
  lazy
    (let tr =
       Gen.run (Velodrome_util.Rng.create 11)
         { Gen.default with steps = 120_000 }
     in
     let names, tr =
       Trace_io.of_string (Trace_io.to_string (Names.create ()) tr)
     in
     (names, tr, encode_bytes names tr))

let test_big_roundtrip () =
  let names, tr, s = Lazy.force big_encoding in
  check bool "more than three chunks" true
    (String.length s > (3 * chunk) + 64);
  let names', tr' = decode_bytes s in
  check bool "ops equal" true (Trace.to_list tr' = Trace.to_list tr);
  check bool "name environment equal" true (names_equal names names')

let stream_file path =
  In_channel.with_open_bin path (fun ic ->
      Trace_codec.iter_events (Trace_codec.reader_of_channel ic) ignore)

(* Every cut reports exactly the bytes consumed, which for a prefix is the
   whole prefix — including cuts just before, at and after a refill. *)
let test_cuts_report_length () =
  let _, _, s = Lazy.force big_encoding in
  let n = String.length s in
  let window k = List.init 129 (fun d -> (k * chunk) + d - 64) in
  let rng = Velodrome_util.Rng.create 3 in
  let cuts =
    List.concat_map window [ 1; 2; 3 ]
    @ List.init 200 (fun _ -> Velodrome_util.Rng.int rng n)
  in
  with_temp_file (fun path ->
      List.iter
        (fun len ->
          Out_channel.with_open_bin path (fun oc ->
              output_substring oc s 0 len);
          let suffix = Printf.sprintf "(at byte %d)" len in
          match stream_file path with
          | exception Trace_codec.Corrupt msg ->
            if not (String.ends_with ~suffix msg) then
              Alcotest.failf "cut at %d: %s" len msg
          | () -> Alcotest.failf "cut at %d accepted" len)
        cuts)

(* --- allocation ------------------------------------------------------------- *)

(* Streaming decode allocates the returned events and nothing per event
   beyond them: an [Op.t] (at most 3 words) plus an [Event.t] (3 words). *)
let test_decode_allocation () =
  let _, tr, s = Lazy.force big_encoding in
  let events = Trace.length tr in
  check bool "at least 100k events" true (events >= 100_000);
  with_temp_file (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc s);
      In_channel.with_open_bin path (fun ic ->
          let r = Trace_codec.reader_of_channel ic in
          let w0 = Gc.minor_words () in
          Trace_codec.iter_events r ignore;
          let words = Gc.minor_words () -. w0 in
          check bool
            (Printf.sprintf "%.0f words for %d events" words events)
            true
            (words <= float_of_int ((6 * events) + 1024))))

(* Text parsing allocates the returned operation and nothing else per
   line once every name is interned: at most 3 words per event. *)
let test_parse_allocation () =
  let names, tr, _ = Lazy.force big_encoding in
  let events = Trace.length tr in
  check bool "at least 100k events" true (events >= 100_000);
  with_temp_file (fun path ->
      Trace_io.write_file names tr path;
      let parse names =
        In_channel.with_open_bin path (fun ic ->
            let w0 = Gc.minor_words () in
            let n =
              Trace_io.fold_channel names ic ~init:0 ~f:(fun n _ -> n + 1)
            in
            (n, Gc.minor_words () -. w0))
      in
      let names = Names.create () in
      ignore (parse names);
      let n, words = parse names in
      check int "every event parsed" events n;
      check bool
        (Printf.sprintf "%.0f words for %d events" words events)
        true
        (words <= float_of_int ((3 * events) + 1024)))

let suite =
  ( "codec",
    [
      Alcotest.test_case "empty trace" `Quick test_empty_trace;
      Alcotest.test_case "single event" `Quick test_single_event;
      Alcotest.test_case "names preserved" `Quick test_names_preserved_exactly;
      Alcotest.test_case "wire format" `Quick test_wire_format;
      Alcotest.test_case "bad magic" `Quick test_bad_magic;
      Alcotest.test_case "bad version" `Quick test_bad_version;
      Alcotest.test_case "all truncations" `Quick test_truncations;
      Alcotest.test_case "bad tag" `Quick test_bad_tag;
      Alcotest.test_case "bad end marker" `Quick test_bad_end_marker;
      Alcotest.test_case "trailing garbage" `Quick test_trailing_garbage;
      Alcotest.test_case "duplicate dictionary" `Quick
        test_duplicate_dictionary;
      Alcotest.test_case "truncated big trace" `Quick test_truncated_big_trace;
      Alcotest.test_case "hostile name length" `Quick test_hostile_name_length;
      Alcotest.test_case "big round-trip" `Quick test_big_roundtrip;
      Alcotest.test_case "cuts report length" `Quick test_cuts_report_length;
      Alcotest.test_case "decode allocation" `Quick test_decode_allocation;
      Alcotest.test_case "parse allocation" `Quick test_parse_allocation;
      QCheck_alcotest.to_alcotest prop_roundtrip_exact;
      QCheck_alcotest.to_alcotest prop_roundtrip_matches_text;
    ] )
