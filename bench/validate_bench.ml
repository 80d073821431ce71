(* Schema check for the benchmark and report artifacts (BENCH_*.json,
   plus the analyze reports the CLI emits). CI runs the bench smoke pass
   and the analyze command and then this validator, so a refactor that
   breaks an emitter — wrong field name, NaN printed as "nan", truncated
   file — fails the build instead of silently uploading a malformed
   artifact.

   Usage: validate_bench.exe FILE KIND [FILE KIND ...]
          validate_bench.exe --same-counts OLD NEW KIND
   where KIND is one of engine | statics (flat row tables) or
   analyze | predict (nested report documents). --same-counts checks NEW
   and fails when any of its count fields differs from OLD's. *)

open Velodrome_util

type field_ty = S | I | N | B
(* N = numeric: integral floats print as JSON integers, so both [Int] and
   [Float] are accepted. *)

let schema = function
  | "engine" ->
    [
      ("fixture", S);
      ("size", S);
      ("events", I);
      ("aero_events_per_sec", N);
      ("aero_bytes_per_event", N);
      ("engine_events_per_sec", N);
      ("engine_bytes_per_event", N);
      ("basic_events_per_sec", N);
      ("basic_bytes_per_event", N);
      ("warnings", I);
    ]
  | "statics" ->
    [
      ("fixture", S);
      ("size", S);
      ("blocks", I);
      ("proved", I);
      ("proved_lipton", I);
      ("proved_cycle_free", I);
      ("may_violate", I);
      ("unknown", I);
      ("races", I);
      ("dead_sites", I);
      ("race_pair_delta", I);
      ("proved_values_delta", I);
      ("analysis_ms", N);
      ("values_analysis_ms", N);
    ]
  | kind -> failwith (Printf.sprintf "unknown bench kind %S" kind)

let type_ok ty v =
  match (ty, v) with
  | S, Json.String _ -> true
  | I, Json.Int _ -> true
  | N, (Json.Int _ | Json.Float _) -> true
  | B, Json.Bool _ -> true
  | _ -> false

let finite = function
  | Json.Float f -> Float.is_finite f
  | _ -> true

let ty_name = function S -> "string" | I -> "int" | N -> "number" | B -> "bool"

let check_row ~file ~kind i row =
  let fields =
    match row with
    | Json.Obj fields -> fields
    | _ -> failwith (Printf.sprintf "%s: row %d is not an object" file i)
  in
  List.iter
    (fun (name, ty) ->
      match List.assoc_opt name fields with
      | None ->
        failwith
          (Printf.sprintf "%s: row %d (%s) is missing field %S" file i kind
             name)
      | Some v ->
        if not (type_ok ty v) then
          failwith
            (Printf.sprintf "%s: row %d field %S is not a %s" file i name
               (ty_name ty));
        if not (finite v) then
          failwith
            (Printf.sprintf "%s: row %d field %S is not finite" file i name))
    (schema kind)

(* --- nested report documents (analyze, predict) --------------------------- *)

let fail ctx msg = failwith (Printf.sprintf "%s: %s" ctx msg)

let obj_fields ctx = function
  | Json.Obj fields -> fields
  | _ -> fail ctx "not an object"

let get ctx fields name =
  match List.assoc_opt name fields with
  | Some v -> v
  | None -> fail ctx (Printf.sprintf "missing field %S" name)

let expect ctx ty v =
  if not (type_ok ty v) then
    fail ctx (Printf.sprintf "expected a %s" (ty_name ty))

let expect_field ctx fields name ty =
  expect (ctx ^ "." ^ name) ty (get ctx fields name)

let check_ints ctx fields names =
  List.iter (fun n -> expect_field ctx fields n I) names

let check_position ctx = function
  | Json.Null -> ()
  | v ->
    let f = obj_fields ctx v in
    check_ints ctx f [ "line"; "col" ]

let check_race_access ctx v =
  let f = obj_fields ctx v in
  expect_field ctx f "site" S;
  (match get ctx f "access" with
  | Json.String ("read" | "write") -> ()
  | _ -> fail ctx "access is not \"read\" or \"write\"");
  (match get ctx f "locks" with
  | Json.List ls -> List.iter (expect (ctx ^ ".locks[]") S) ls
  | _ -> fail ctx "locks is not an array");
  (match get ctx f "atomic" with
  | Json.Null | Json.String _ -> ()
  | _ -> fail ctx "atomic is not a string or null");
  check_position (ctx ^ ".position") (get ctx f "position")

let check_races_doc ctx v =
  let f = obj_fields ctx v in
  let pairs =
    match get ctx f "pairs" with
    | Json.List ps -> ps
    | _ -> fail ctx "pairs is not an array"
  in
  List.iteri
    (fun i p ->
      let ctx = Printf.sprintf "%s.pairs[%d]" ctx i in
      let pf = obj_fields ctx p in
      expect_field ctx pf "var" S;
      expect_field ctx pf "explanation" S;
      check_race_access (ctx ^ ".a") (get ctx pf "a");
      check_race_access (ctx ^ ".b") (get ctx pf "b"))
    pairs;
  let s = obj_fields (ctx ^ ".summary") (get ctx f "summary") in
  check_ints (ctx ^ ".summary") s
    [ "pairs"; "racy_vars"; "access_sites"; "blocks"; "proved" ];
  (* Internal consistency: the summary must count the pairs array. *)
  match List.assoc_opt "pairs" s with
  | Some (Json.Int n) when n <> List.length pairs ->
    fail ctx
      (Printf.sprintf "summary.pairs = %d but %d pairs listed" n
         (List.length pairs))
  | _ -> ()

let check_analyze_doc ctx v =
  let f = obj_fields ctx v in
  (match List.assoc_opt "file" f with
  | None -> ()
  | Some v -> expect (ctx ^ ".file") S v);
  (match get ctx f "blocks" with
  | Json.List bs ->
    List.iteri
      (fun i b ->
        let ctx = Printf.sprintf "%s.blocks[%d]" ctx i in
        let bf = obj_fields ctx b in
        expect_field ctx bf "label" S;
        (match get ctx bf "verdict" with
        | Json.String ("proved-atomic" | "may-violate" | "unknown") -> ()
        | _ ->
          fail ctx
            "verdict is not \"proved-atomic\", \"may-violate\" or \
             \"unknown\"");
        match get ctx bf "proof" with
        | Json.Null | Json.String ("lipton" | "cycle-free") -> ()
        | _ -> fail ctx "proof is not \"lipton\", \"cycle-free\" or null")
      bs
  | _ -> fail ctx "blocks is not an array");
  let s = obj_fields (ctx ^ ".summary") (get ctx f "summary") in
  check_ints (ctx ^ ".summary") s
    [
      "blocks";
      "proved";
      "proved_lipton";
      "proved_cycle_free";
      "may_violate";
      "unknown";
      "race_pairs";
      "racy_vars";
      "dead_sites";
      "dead_branches";
    ];
  (match List.assoc_opt "values" f with
  | None | Some Json.Null -> ()
  | Some v ->
    let ctx = ctx ^ ".values" in
    let vf = obj_fields ctx v in
    (match get ctx vf "facts" with
    | Json.List _ -> ()
    | _ -> fail ctx "facts is not an array");
    match get ctx vf "dead_branches" with
    | Json.List _ -> ()
    | _ -> fail ctx "dead_branches is not an array");
  (match List.assoc_opt "gate" f with
  | None -> ()
  | Some g ->
    let ctx = ctx ^ ".gate" in
    let gf = obj_fields ctx g in
    check_ints ctx gf [ "schedules"; "dynamic_warnings" ];
    expect_field ctx gf "ok" B;
    List.iter
      (fun name ->
        match get ctx gf name with
        | Json.List _ -> ()
        | _ -> fail ctx (name ^ " is not an array"))
      [
        "mismatches";
        "uncovered_blames";
        "uncovered_races";
        "engine_disagreements";
        "value_violations";
      ]);
  match List.assoc_opt "races" f with
  | None -> ()
  | Some r -> check_races_doc (ctx ^ ".races") r

(* BENCH_predict.json: the predictive-atomicity study artifact. Beyond
   field shapes, this enforces the artifact's two claims: zero
   uncertified predictions anywhere, and strict dominance — prediction
   from one observation finds strictly more unique violating blocks
   than the adversarial sweep. *)
let check_predict_doc ctx v =
  let f = obj_fields ctx v in
  let int_of ctx fields name =
    match get ctx fields name with
    | Json.Int n -> n
    | _ -> fail ctx (Printf.sprintf "field %S is not an int" name)
  in
  let check_counts ctx fields =
    check_ints ctx fields
      [
        "predicted";
        "certified";
        "uncertified";
        "observed_blamed";
        "adversarial_unique";
        "rr_plus_predicted_unique";
      ];
    if int_of ctx fields "uncertified" <> 0 then
      fail ctx "uncertified predictions present";
    if
      int_of ctx fields "certified" + int_of ctx fields "uncertified"
      <> int_of ctx fields "predicted"
    then fail ctx "certified + uncertified <> predicted"
  in
  let wl_rows =
    match get ctx f "workloads" with
    | Json.List rows -> rows
    | _ -> fail ctx "workloads is not an array"
  in
  if wl_rows = [] then fail ctx "no workload rows";
  List.iteri
    (fun i row ->
      let ctx = Printf.sprintf "%s.workloads[%d]" ctx i in
      let rf = obj_fields ctx row in
      expect_field ctx rf "fixture" S;
      check_ints ctx rf [ "blocks"; "may_violate"; "unpredicted" ];
      expect_field ctx rf "predict_ms" N;
      if not (finite (get ctx rf "predict_ms")) then
        fail ctx "predict_ms is not finite";
      check_counts ctx rf;
      if int_of ctx rf "predicted" > int_of ctx rf "may_violate" then
        fail ctx "more predictions than may-violate blocks")
    wl_rows;
  let pg = obj_fields (ctx ^ ".progen") (get ctx f "progen") in
  check_ints (ctx ^ ".progen") pg [ "programs"; "seed_start" ];
  expect_field (ctx ^ ".progen") pg "predict_ms_total" N;
  check_counts (ctx ^ ".progen") pg;
  let s = obj_fields (ctx ^ ".summary") (get ctx f "summary") in
  let sctx = ctx ^ ".summary" in
  check_ints sctx s [ "programs" ];
  check_counts sctx s;
  expect_field sctx s "strict_dominance" B;
  (* The summary must total the workload rows plus the progen sweep. *)
  let wl_sum name =
    List.fold_left
      (fun acc row -> acc + int_of ctx (obj_fields ctx row) name)
      0 wl_rows
  in
  List.iter
    (fun name ->
      if wl_sum name + int_of ctx pg name <> int_of sctx s name then
        fail sctx (Printf.sprintf "%s does not total workloads + progen" name))
    [ "predicted"; "certified"; "adversarial_unique"; "rr_plus_predicted_unique" ];
  if List.length wl_rows + int_of ctx pg "programs" <> int_of sctx s "programs"
  then fail sctx "programs does not total workloads + progen";
  let adv = int_of sctx s "adversarial_unique" in
  let rr = int_of sctx s "rr_plus_predicted_unique" in
  (match get sctx s "strict_dominance" with
  | Json.Bool b when b <> (rr > adv) ->
    fail sctx "strict_dominance does not match the counts"
  | _ -> ());
  if rr <= adv then
    fail sctx
      (Printf.sprintf
         "no strict dominance: rr_plus_predicted_unique %d <= \
          adversarial_unique %d"
         rr adv)

let check_report ~file kind doc =
  let check_doc =
    match kind with
    | "analyze" -> check_analyze_doc
    | "predict" -> check_predict_doc
    | _ -> assert false
  in
  match doc with
  | Json.List [] -> failwith (Printf.sprintf "%s: no documents" file)
  | Json.List docs ->
    List.iteri
      (fun i d -> check_doc (Printf.sprintf "%s: doc %d" file i) d)
      docs;
    Printf.printf "%s: %d %s documents ok\n" file (List.length docs) kind
  | doc ->
    check_doc file doc;
    Printf.printf "%s: 1 %s document ok\n" file kind

let check_file file kind =
  let contents =
    try In_channel.with_open_bin file In_channel.input_all
    with Sys_error msg -> failwith msg
  in
  match Json.of_string contents with
  | Error msg -> failwith (Printf.sprintf "%s: parse error: %s" file msg)
  | Ok doc when kind = "analyze" || kind = "predict" ->
    check_report ~file kind doc
  | Ok (Json.List []) -> failwith (Printf.sprintf "%s: no rows" file)
  | Ok (Json.List rows) ->
    List.iteri (check_row ~file ~kind) rows;
    Printf.printf "%s: %d %s rows ok\n" file (List.length rows) kind
  | Ok _ -> failwith (Printf.sprintf "%s: top level is not an array" file)

(* --- reproducible counts (--same-counts) --------------------------------- *)

(* The timing fields of a kind: its numeric columns, which differ from run
   to run. Every other field (string, int, bool) is a count that a rerun
   of the same code must reproduce exactly. Integral floats print as JSON
   integers, so timing fields are known by name, not by JSON type. *)
let timing_fields = function
  | "predict" -> [ "predict_ms"; "predict_ms_total" ]
  | "analyze" -> []
  | kind ->
    List.filter_map (fun (name, ty) -> if ty = N then Some name else None)
      (schema kind)

let rec count_diffs timing path a b acc =
  let field k = if path = "" then k else path ^ "." ^ k in
  match (a, b) with
  | Json.Obj fa, Json.Obj fb when List.map fst fa = List.map fst fb ->
    List.fold_left2
      (fun acc (k, va) (_, vb) ->
        if List.mem k timing then acc
        else count_diffs timing (field k) va vb acc)
      acc fa fb
  | Json.List la, Json.List lb when List.length la = List.length lb ->
    fst
      (List.fold_left2
         (fun (acc, i) va vb ->
           let path = Printf.sprintf "%s[%d]" path i in
           (count_diffs timing path va vb acc, i + 1))
         (acc, 0) la lb)
  | Json.List la, Json.List lb ->
    ( path,
      Printf.sprintf "%d entries" (List.length la),
      Printf.sprintf "%d" (List.length lb) )
    :: acc
  | Json.Obj _, Json.Obj _ -> (path, "other fields", "these") :: acc
  | a, b when a = b -> acc
  | a, b -> (path, Json.to_string a, Json.to_string b) :: acc

let check_same_counts ~old_file ~new_file kind =
  check_file new_file kind;
  let load file =
    match
      Json.of_string
        (try In_channel.with_open_bin file In_channel.input_all
         with Sys_error msg -> failwith msg)
    with
    | Ok doc -> doc
    | Error msg -> failwith (Printf.sprintf "%s: parse error: %s" file msg)
  in
  match
    List.rev
      (count_diffs (timing_fields kind) "" (load old_file) (load new_file) [])
  with
  | [] -> Printf.printf "%s: same counts as %s\n" new_file old_file
  | diffs ->
    List.iter
      (fun (path, o, n) ->
        Printf.eprintf "validate_bench: %s: %s: %s in %s, %s here\n" new_file
          (if path = "" then "top level" else path)
          o old_file n)
      diffs;
    failwith
      (Printf.sprintf "%s: %d count(s) differ from %s" new_file
         (List.length diffs) old_file)

let usage () =
  prerr_endline
    "usage: validate_bench.exe FILE KIND [FILE KIND ...]\n\
    \       validate_bench.exe --same-counts OLD NEW KIND";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "--same-counts"; old_file; new_file; kind ] -> (
    try check_same_counts ~old_file ~new_file kind
    with Failure msg ->
      Printf.eprintf "validate_bench: %s\n" msg;
      exit 1)
  | "--same-counts" :: _ -> usage ()
  | _ -> (
    let rec pairs = function
      | [] -> []
      | file :: kind :: rest -> (file, kind) :: pairs rest
      | [ _ ] -> usage ()
    in
    match pairs args with
    | [] -> usage ()
    | specs -> (
      try List.iter (fun (file, kind) -> check_file file kind) specs
      with Failure msg ->
        Printf.eprintf "validate_bench: %s\n" msg;
        exit 1))
