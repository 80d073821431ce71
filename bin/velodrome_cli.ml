(* The velodrome command-line tool.

   Subcommands:
   - list            benchmark workloads and their ground truth
   - run             run a workload or a .vel program under selected analyses
   - analyze         the static report (Velodrome_harness.Report): verdicts,
                     races, values, conflict graph, soundness gate and
                     witness-guided prediction; --schedule replays one
                     prediction
   - print           print a workload as .vel source
   - record          record a workload (or .vel program) trace to a file
   - check-trace     replay a recorded trace (text or binary), streaming
   - serve           check many trace files on a pool of domains
   - convert         convert traces between the text and binary formats
   - minimize        shrink a non-serializable trace to a minimal witness
   - fuzz            random traces through the engine trio and the oracle
   - table1          regenerate Table 1 (slowdowns, node statistics)
   - table2          regenerate Table 2 (warning classification)
   - study           adversarial-scheduling studies (coverage, injection)

   Trace files come in two formats, auto-detected on input: the textual
   format of Trace_io and the compact binary format of Trace_codec
   (written when the file name ends in .velb, or with convert).

   Exit codes, uniform across subcommands: 0 = clean (no warnings, every
   block proved), 1 = violations reported / blocks left unproved / a
   failed soundness gate, 2 = usage errors, ill-formed programs and
   unreadable, corrupt or ill-formed trace files. *)

open Cmdliner
open Velodrome_analysis
open Velodrome_workloads

let size_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("small", Workload.Small);
             ("medium", Workload.Medium);
             ("large", Workload.Large);
           ])
        Workload.Medium
    & info [ "size" ] ~docv:"SIZE" ~doc:"Workload size: small, medium, large.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Scheduler seed.")

let adversarial_arg =
  Arg.(
    value & flag
    & info [ "adversarial" ]
        ~doc:"Enable Atomizer-guided adversarial scheduling (Section 5).")

let format_arg =
  Arg.(
    value
    & opt (enum [ ("human", `Human); ("json", `Json) ]) `Human
    & info [ "format" ] ~docv:"FORMAT"
        ~doc:"Output format: $(b,human) or $(b,json).")

let exits =
  [
    Cmd.Exit.info 0
      ~doc:"on a clean result: no warnings, every atomic block proved.";
    Cmd.Exit.info 1
      ~doc:
        "when warnings were reported, a block could not be proved atomic, \
         or the soundness gate failed.";
    Cmd.Exit.info 2
      ~doc:
        "on usage errors, ill-formed programs and unreadable, corrupt or \
         ill-formed trace files.";
    Cmd.Exit.info Cmd.Exit.internal_error ~doc:"on unexpected internal errors.";
  ]

(* The one table of back-ends that -a accepts. *)
let backends : (string * (module Backend.S)) list =
  [
    ("velodrome", Velodrome_core.Engine.backend ());
    ("velodrome-basic", Velodrome_core.Basic.backend ());
    ("aero", Velodrome_core.Aero.backend ());
    ("atomizer", Velodrome_atomizer.Atomizer.backend ());
    ("eraser", Velodrome_eraser.Eraser.backend ());
    ("hb", Velodrome_hbrace.Hbrace.backend ());
    ("2pl", Velodrome_twopl.Twopl.backend ());
    ( "2pl-strict",
      Velodrome_twopl.Twopl.backend
        ~config:{ Velodrome_twopl.Twopl.strict = true } () );
    ("empty", (module Empty));
  ]

(* An -a value is a table entry, so an unknown name is a usage error
   before anything runs. *)
let backend_conv =
  let parse name =
    match List.assoc_opt name backends with
    | Some m -> Ok (name, m)
    | None -> Error (`Msg (Printf.sprintf "unknown analysis %S" name))
  in
  Arg.conv (parse, fun ppf (name, _) -> Format.pp_print_string ppf name)

let make_backends analyses names =
  List.map (fun (_, m) -> Backend.make m names) analyses

let analyses_arg default =
  Arg.(
    value
    & opt (list backend_conv)
        (List.map (fun a -> (a, List.assoc a backends)) default)
    & info [ "analysis"; "a"; "backend" ] ~docv:"LIST"
        ~doc:
          ("Comma-separated back-ends: "
          ^ String.concat ", " (List.map fst backends)
          ^ "."))

let spec_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "spec" ] ~docv:"FILE"
        ~doc:
          "Atomicity specification: which methods to check (see \
           Velodrome_harness.Spec).")

let load_spec = function
  | None -> Velodrome_harness.Spec.default
  | Some path -> (
    match Velodrome_harness.Spec.of_file path with
    | Ok s -> s
    | Error e ->
      Printf.eprintf "%s: %s\n" path e;
      exit 2)

let apply_spec spec names backends =
  List.map
    (Velodrome_harness.Exclude.methods
       ~excluded:(Velodrome_harness.Spec.excluded spec names))
    backends

let report_warnings names warnings =
  if warnings = [] then print_endline "No warnings."
  else begin
    Printf.printf "%d warning(s):\n" (List.length warnings);
    List.iter (Format.printf "  %a@." (Warning.pp names)) warnings
  end

let dump_dots dir names warnings =
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  List.iteri
    (fun k (w : Warning.t) ->
      match Warning.dot names w with
      | Some dot ->
        let label =
          match w.Warning.label with
          | Some l -> Velodrome_trace.Names.label_name names l
          | None -> Printf.sprintf "warning%d" k
        in
        let path =
          Filename.concat dir
            (Printf.sprintf "%s.dot"
               (String.map (function '.' | '/' -> '_' | c -> c) label))
        in
        Out_channel.with_open_bin path (fun oc -> output_string oc dot);
        Printf.printf "  error graph written to %s\n" path
      | None -> ())
    warnings

(* Every program the CLI builds passes the static checks before anything
   runs it: a failing program reports every error, with statement paths,
   and exits 2. *)
let checked_program name program =
  match Velodrome_lang.Check.check_program program with
  | Ok () -> program
  | Error errs ->
    List.iter
      (fun e -> Format.eprintf "%s: %a@." name Velodrome_lang.Check.pp_error e)
      errs;
    exit 2

(* Parsing a .vel file also yields the source position of each atomic
   label, which analyze uses to anchor verdicts. *)
let parse_vel file =
  match Velodrome_lang.Parser.parse_file_info file with
  | exception Velodrome_lang.Parser.Parse_error (m, l, c) ->
    Format.eprintf "%s: %a@." file Velodrome_lang.Parser.pp_error (m, l, c);
    exit 2
  | exception Velodrome_lang.Lexer.Lex_error (m, l, c) ->
    Printf.eprintf "%s: lex error at %d:%d: %s\n" file l c m;
    exit 2
  | exception Sys_error msg ->
    prerr_endline msg;
    exit 2
  | program, positions ->
    (checked_program file program, fun l -> List.assoc_opt l positions)

module Report = Velodrome_harness.Report

(* A program target is a .vel source file or a workload name; workloads
   are built in memory and have no source positions. *)
let build_target name size =
  let program, pos =
    if Filename.check_suffix name ".vel" then parse_vel name
    else
      match Workload.find name with
      | None ->
        Printf.eprintf "unknown workload %S\n" name;
        exit 2
      | Some w -> (checked_program name (w.Workload.build size), fun _ -> None)
  in
  { Report.name; program; pos; generated = None }

let build_program name size = (build_target name size).Report.program

(* --- list ---------------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun w ->
        Printf.printf "%-11s %s\n" w.Workload.name w.Workload.description;
        Printf.printf "            methods: %d (%d with real violations)\n"
          (List.length w.Workload.methods)
          (Workload.non_atomic_count w))
      Workload.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List benchmark workloads.")
    Term.(const run $ const ())

(* --- run ----------------------------------------------------------------- *)

let run_cmd =
  let workload =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD"
          ~doc:"Workload name (see 'velodrome list') or a .vel program file.")
  in
  let dot_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"DIR" ~doc:"Write error graphs as dot files.")
  in
  let run name size seed adversarial analyses dot_dir spec =
    let program = build_program name size in
    let names = program.Velodrome_sim.Ast.names in
    let backends =
      make_backends analyses names |> apply_spec (load_spec spec) names
    in
    (* Only the Atomizer ever asks for a pause, so --adversarial attaches
       one as the pause oracle, as Gate.run does; its warnings are
       printed only when -a names it. *)
    let oracle = adversarial && not (List.mem_assoc "atomizer" analyses) in
    let backends =
      if oracle then
        Backend.make (Velodrome_atomizer.Atomizer.backend ()) names :: backends
      else backends
    in
    let config =
      {
        Velodrome_sim.Run.default_config with
        policy = Velodrome_sim.Run.Random seed;
        adversarial;
      }
    in
    let res = Velodrome_sim.Run.run ~config program backends in
    Printf.printf "%s: %d events, %d pauses%s\n" name
      res.Velodrome_sim.Run.events res.Velodrome_sim.Run.pauses
      (if res.Velodrome_sim.Run.deadlocked then " (DEADLOCK)" else "");
    let shown (w : Warning.t) =
      not (oracle && w.analysis = Velodrome_atomizer.Atomizer.name)
    in
    let warnings =
      Warning.dedup_by_label (List.filter shown res.Velodrome_sim.Run.warnings)
    in
    report_warnings names warnings;
    Option.iter (fun dir -> dump_dots dir names warnings) dot_dir;
    if warnings <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a workload or a .vel program under selected analyses." ~exits)
    Term.(
      const run $ workload $ size_arg $ seed_arg $ adversarial_arg
      $ analyses_arg [ "velodrome"; "atomizer" ] $ dot_dir $ spec_arg)

(* --- analyze ----------------------------------------------------------------- *)

let analyze_cmd =
  let target =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"TARGET"
          ~doc:"A .vel program file or workload name (omit with --all).")
  in
  let all =
    Arg.(value & flag & info [ "all" ] ~doc:"Analyze every workload.")
  in
  let gate =
    Arg.(
      value & flag
      & info [ "gate" ]
          ~doc:
            "Soundness gate: also replay each program under round-robin, \
             random and adversarial schedules (one run per --seeds entry \
             each) and fail on any broken obligation of \
             Velodrome_harness.Gate: a proved or not may-violate block \
             blamed, a dynamic race outside every static race pair, \
             disagreeing engines, or a broken value fact.")
  in
  let races_flag =
    Arg.(
      value & flag
      & info [ "races" ]
          ~doc:
            "Also report every static race pair: each ordered pair of \
             conflicting access sites that may run in parallel and share \
             no lock, with the atomic blocks it endangers.")
  in
  let seeds =
    Arg.(
      value
      & opt (list int) [ 1; 2; 3 ]
      & info [ "seeds" ] ~docv:"LIST"
          ~doc:"Scheduler seeds for the --gate runs.")
  in
  let graph =
    Arg.(
      value & flag
      & info [ "graph" ]
          ~doc:
            "Also report the static transactional conflict graph: node \
             and edge counts by sort, budget status, and one witness \
             cycle per may-violate block.")
  in
  let dot_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot-dir" ] ~docv:"DIR"
          ~doc:
            "Write the static conflict graph and each witness cycle as \
             dot files, mirroring the dynamic error graphs of 'run \
             --dot'.")
  in
  let generated =
    Arg.(
      value & opt int 0
      & info [ "generated" ] ~docv:"N"
          ~doc:
            "Additionally analyze (and with --gate, replay) N generated \
             programs with consecutive progen seeds starting at \
             --gen-seed.")
  in
  let gen_seed =
    Arg.(
      value & opt int 1
      & info [ "gen-seed" ] ~docv:"S"
          ~doc:"First progen seed for --generated.")
  in
  let predict_flag =
    Arg.(
      value & flag
      & info [ "predict" ]
          ~doc:
            "Witness-guided prediction: replay each may-violate block's \
             witness cycles as forced schedules and report the ones the \
             engine trio certifies, each with a replay line. With --gate, \
             every prediction is replayed again and must re-certify.")
  in
  let values_flag =
    Arg.(
      value & flag
      & info [ "values" ]
          ~doc:
            "Also report the per-thread value analysis: one interval \
             fact per register write and shared access, plus every \
             statically-dead branch arm.")
  in
  let no_values =
    Arg.(
      value & flag
      & info [ "no-values" ]
          ~doc:
            "Disable the value analysis entirely: no branch pruning \
             feeds the static passes and the --gate value obligations \
             are skipped.")
  in
  let block =
    Arg.(
      value
      & opt (some string) None
      & info [ "block" ] ~docv:"NAME"
          ~doc:"The atomic block a --schedule replay is certified against.")
  in
  let schedule =
    Arg.(
      value
      & opt (some string) None
      & info [ "schedule" ] ~docv:"PLAN"
          ~doc:
            "Instead of reporting, replay one waypoint schedule (a replay \
             line's payload, e.g. \"t0@1.0 -> t1@2\") on the one program \
             given and certify it against --block: exit 1 when \
             certified, 0 when not.")
  in
  let usage msg =
    Printf.eprintf "analyze: %s\n" msg;
    exit 2
  in
  let run target all fmt gate races graph dot_dir generated gen_seed size
      seeds predict show_values no_values block schedule =
    let named =
      if all then
        List.map (fun w -> build_target w.Workload.name size) Workload.all
      else
        match target with
        | None when generated > 0 -> []
        | None -> usage "a TARGET (or --all) is required"
        | Some name -> [ build_target name size ]
    in
    let targets =
      named
      @ List.init generated (fun k ->
            let t = Report.progen (gen_seed + k) in
            { t with program = checked_program t.Report.name t.Report.program })
    in
    match (block, schedule, targets) with
    | Some block, Some schedule, [ t ] -> (
      match Report.replay t ~block ~schedule with
      | Error msg -> usage msg
      | Ok r ->
        Format.printf "%a" (Report.pp_replay ~block) r;
        match r with
        | Report.Certified _ -> exit 1
        | Report.Not_certified _ -> ())
    | Some _, Some _, _ ->
      usage "--schedule replays one program: a TARGET or --generated 1"
    | Some _, None, _ -> usage "--block requires --schedule"
    | None, Some _, _ -> usage "--schedule requires --block"
    | None, None, _ ->
      let report =
        Report.run
          {
            Report.values = not no_values;
            show_values;
            races;
            graph;
            gate = (if gate then Some seeds else None);
            predict;
          }
          targets
      in
      List.iter prerr_endline (Report.replay_lines report);
      let single = (not all) && generated = 0 in
      (match fmt with
      | `Human -> Format.printf "%a" (Report.pp_human ~single) report
      | `Json ->
        print_endline
          (Velodrome_util.Json.to_string (Report.to_json ~single report)));
      Option.iter
        (fun dir ->
          List.iter
            (fun path ->
              if fmt = `Human then
                Printf.printf "static graph written to %s\n" path)
            (Report.write_dots dir report))
        dot_dir;
      exit (Report.exit_code report)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Static atomicity pre-pass: per-thread CFGs, must-lockset \
          dataflow, Lipton mover classification, a reduction check per \
          atomic block and a transactional conflict-graph cycle search, \
          with optional race pairs, value facts, soundness gate and \
          witness-guided prediction. Exits 0 when every block is proved \
          atomic, 1 otherwise (or on a failed --gate)."
       ~exits)
    Term.(
      const run $ target $ all $ format_arg $ gate $ races_flag $ graph
      $ dot_dir $ generated $ gen_seed $ size_arg $ seeds $ predict_flag
      $ values_flag $ no_values $ block $ schedule)

(* --- trace files ------------------------------------------------------------ *)

(* A trace destination is binary iff it is named .velb; sources are
   sniffed by magic, so either format is accepted everywhere. *)
let binary_path path = Filename.check_suffix path ".velb"

let write_trace ?binary names trace path =
  if Option.value binary ~default:(binary_path path) then
    Velodrome_trace.Trace_codec.write_file names trace path
  else Velodrome_trace.Trace_io.write_file names trace path

let record_cmd =
  let workload =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD"
          ~doc:"Workload to record, or a .vel program file.")
  in
  let out =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"Output trace file (binary when named *.velb).")
  in
  let run name out size seed =
    let program = build_program name size in
    let config =
      {
        Velodrome_sim.Run.default_config with
        policy = Velodrome_sim.Run.Random seed;
        record_trace = true;
      }
    in
    let res = Velodrome_sim.Run.run ~config program [] in
    let trace = Option.get res.Velodrome_sim.Run.trace in
    write_trace program.Velodrome_sim.Ast.names trace out;
    Printf.printf "recorded %d operations to %s\n"
      (Velodrome_trace.Trace.length trace)
      out
  in
  Cmd.v
    (Cmd.info "record" ~doc:"Record a workload's event trace to a file.")
    Term.(const run $ workload $ out $ size_arg $ seed_arg)

module Driver = Velodrome_stream.Driver

(* convert and minimize need the whole trace in memory, decoded and
   well-formed; failures read as they do in check-trace. *)
let load_trace file =
  let fail e =
    prerr_endline (Driver.error_line file e);
    exit 2
  in
  let open Velodrome_trace in
  match
    if Trace_codec.is_binary_file file then Trace_codec.read_file file
    else Trace_io.read_file file
  with
  | exception
      ((Trace_io.Syntax_error _ | Trace_codec.Corrupt _ | Sys_error _) as e) ->
    fail e
  | names, trace -> (
    match Trace.check trace with
    | Ok () -> (names, trace)
    | Error v -> fail (Trace.Ill_formed v))

(* The back-ends of check-trace, with the optimized engine built
   explicitly so the --stats reporter can probe its live happens-before
   node count. *)
let stream_backends analyses =
  let engine = ref None in
  let backends names =
    List.map
      (function
        | "velodrome", _ ->
          let eng = Velodrome_core.Engine.create names in
          engine := Some eng;
          let module E = struct
            type t = Velodrome_core.Engine.t

            let name = "velodrome"
            let create _ = eng
            let on_event = Velodrome_core.Engine.on_event
            let pause_hint _ _ = false
            let finish = Velodrome_core.Engine.finish
            let warnings = Velodrome_core.Engine.warnings
          end in
          Backend.make (module E) names
        | _, m -> Backend.make m names)
      analyses
  in
  let live_nodes () =
    Option.fold ~none:0 ~some:Velodrome_core.Engine.nodes_live !engine
  in
  ( backends,
    if List.mem_assoc "velodrome" analyses then Some live_nodes else None )

let print_stats (s : Driver.stats) =
  Printf.eprintf
    "[stream] events=%d warnings=%d%s alloc=%.0fw minor-gcs=%d major-gcs=%d\n%!"
    s.Driver.events s.Driver.warnings
    (match s.Driver.live_nodes with
    | Some n -> Printf.sprintf " live-nodes=%d" n
    | None -> "")
    s.Driver.allocated_words s.Driver.minor_collections
    s.Driver.major_collections

(* The one printer of a checked stream, for check-trace and serve alike:
   the operation count and the warnings — for a failed stream those of
   its valid prefix, when it has one, marked partial — then a failure's
   diagnostic on stderr, which names the cause (truncation, a syntax
   error, an ill-formed operation or an engine limit). *)
let print_outcome path outcome =
  let events, warnings, failure =
    match outcome with
    | Driver.Checked { events; warnings } -> (events, warnings, None)
    | Driver.Failed { events; warnings; message } ->
      (events, warnings, Some message)
  in
  let partial = failure <> None in
  if events > 0 || not partial then begin
    match warnings with
    | Driver.Lines lines ->
      Printf.printf "%s: %d operations%s\n" path events
        (if partial then " (partial)" else "");
      if lines = [] then print_endline "No warnings."
      else begin
        Printf.printf "%d warning(s):\n" (List.length lines);
        List.iter (Printf.printf "  %s\n") lines
      end
    | Driver.Objects objects ->
      let open Velodrome_util.Json in
      print_endline
        (to_string
           (Obj
              ([
                 ("file", String path);
                 ("events", Int events);
                 ("warnings", List objects);
               ]
              @ if partial then [ ("partial", Bool true) ] else [])))
  end;
  Option.iter
    (fun message ->
      flush stdout;
      prerr_endline message)
    failure

let check_trace_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"A recorded trace file (text or binary).")
  in
  let stream =
    Arg.(
      value & flag
      & info [ "stream" ]
          ~doc:
            "Accepted for compatibility and has no effect: every replay \
             streams from the file in bounded memory.")
  in
  let stats =
    Arg.(
      value
      & opt (some int) None
      & info [ "stats" ] ~docv:"N"
          ~doc:"Report engine statistics to stderr every N events.")
  in
  let run file analyses (_ : bool) stats fmt =
    let backends, live_nodes = stream_backends analyses in
    let outcome =
      Driver.check_file
        ?progress:(Option.map (fun _ -> print_stats) stats)
        ?every:stats ?live_nodes ~backends ~format:fmt file
    in
    print_outcome file outcome;
    match outcome with
    | Driver.Checked { warnings; _ } ->
      if Driver.warning_count warnings > 0 then exit 1
    | Driver.Failed _ -> exit 2
  in
  Cmd.v
    (Cmd.info "check-trace"
       ~doc:
         "Replay a recorded trace through the analyses, streaming it from \
          the file. An ill-formed, truncated or corrupt trace exits 2 \
          after the result for its valid prefix."
       ~exits)
    Term.(
      const run $ file
      $ analyses_arg [ "velodrome"; "atomizer" ]
      $ stream $ stats $ format_arg)

let convert_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"INPUT" ~doc:"Trace file to convert (text or binary).")
  in
  let output =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"OUTPUT"
          ~doc:"Destination (binary when named *.velb, text otherwise).")
  in
  let to_format =
    Arg.(
      value
      & opt (some (enum [ ("binary", true); ("text", false) ])) None
      & info [ "to" ] ~docv:"FORMAT"
          ~doc:"Force the output format: binary or text.")
  in
  let run input output to_format =
    let names, trace = load_trace input in
    let binary = Option.value to_format ~default:(binary_path output) in
    write_trace ~binary names trace output;
    Printf.printf "converted %s (%d events) to %s (%s)\n" input
      (Velodrome_trace.Trace.length trace)
      output
      (if binary then "binary" else "text")
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:"Convert a trace between the text and binary formats.")
    Term.(const run $ input $ output $ to_format)

let minimize_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"A recorded trace file.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o" ] ~docv:"FILE"
          ~doc:"Write the minimized trace here (binary when named *.velb).")
  in
  let run file out =
    let names, trace = load_trace file in
    if Velodrome_oracle.Oracle.serializable trace then begin
      Printf.printf "%s is serializable; nothing to minimize.\n" file;
      exit 0
    end;
    let small = Velodrome_oracle.Minimize.ddmin trace in
    Printf.printf "minimized %d operations to %d:\n"
      (Velodrome_trace.Trace.length trace)
      (Velodrome_trace.Trace.length small);
    print_string (Velodrome_trace.Trace_io.to_string names small);
    Option.iter (write_trace names small) out
  in
  Cmd.v
    (Cmd.info "minimize"
       ~doc:
        "Shrink a non-serializable trace to a 1-minimal witness (delta \
         debugging).")
    Term.(const run $ file $ out)

(* --- print ------------------------------------------------------------------ *)

let print_cmd =
  let workload =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD"
          ~doc:"Workload (or .vel program file) to print as .vel source.")
  in
  let run name size =
    print_string (Velodrome_lang.Printer.to_string (build_program name size))
  in
  Cmd.v
    (Cmd.info "print"
       ~doc:"Print a workload program in the .vel core form.")
    Term.(const run $ workload $ size_arg)

(* --- fuzz ------------------------------------------------------------------- *)

let fuzz_cmd =
  let count =
    Arg.(
      value & opt int 2000
      & info [ "count"; "n" ] ~docv:"N" ~doc:"Random traces to check.")
  in
  let dense =
    Arg.(
      value & flag
      & info [ "dense" ] ~doc:"High-contention trace shape (2 vars, 1 lock).")
  in
  let run count seed dense =
    let open Velodrome_trace in
    let cfg = if dense then Gen.dense else Gen.default in
    let rng = Velodrome_util.Rng.create seed in
    let mismatches = ref 0 in
    for k = 1 to count do
      let tr = Gen.run rng cfg in
      let names = Names.create () in
      let oracle = not (Velodrome_oracle.Oracle.serializable tr) in
      let problem =
        match Velodrome_harness.Trio.check names tr with
        | Ok v when v = oracle -> None
        | Ok v -> Some (Printf.sprintf "oracle=%b engines=%b" oracle v)
        | Error msg -> Some msg
      in
      Option.iter
        (fun msg ->
          incr mismatches;
          Printf.printf "MISMATCH on trace %d: %s\n%s\n" k msg
            (Trace_io.to_string names tr))
        problem
    done;
    if !mismatches = 0 then
      Printf.printf
        "fuzz: %d random traces, velodrome = basic = aero = oracle on all of \
         them\n"
        count
    else begin
      Printf.printf "fuzz: %d mismatches out of %d traces\n" !mismatches count;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
        "Differential fuzzing: random well-formed traces through the three \
         atomicity engines (velodrome, velodrome-basic, aero) and the \
         offline oracle.")
    Term.(const run $ count $ seed_arg $ dense)

(* --- tables and studies --------------------------------------------------- *)

let repeats_arg =
  Arg.(
    value & opt int 3
    & info [ "repeats" ] ~docv:"N" ~doc:"Timing repetitions (median).")

let table1_cmd =
  let run size seed repeats =
    let rows = Velodrome_harness.Table1.run ~size ~seed ~repeats () in
    Format.printf "Table 1: slowdowns and happens-before node statistics@.";
    Velodrome_harness.Table1.print Format.std_formatter rows
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Regenerate Table 1.")
    Term.(const run $ size_arg $ seed_arg $ repeats_arg)

let seeds_arg =
  Arg.(
    value
    & opt (list int) [ 1; 2; 3; 4; 5 ]
    & info [ "seeds" ] ~docv:"LIST" ~doc:"Scheduler seeds (one run each).")

let table2_cmd =
  let run size seeds adversarial =
    let rows = Velodrome_harness.Table2.run ~size ~seeds ~adversarial () in
    Format.printf
      "Table 2: warnings with all methods assumed atomic (%d runs each)@."
      (List.length seeds);
    Velodrome_harness.Table2.print Format.std_formatter rows
  in
  Cmd.v
    (Cmd.info "table2" ~doc:"Regenerate Table 2.")
    Term.(const run $ size_arg $ seeds_arg $ adversarial_arg)

let study_cmd =
  let part =
    Arg.(
      value
      & opt string "all"
      & info [ "part" ] ~docv:"PART"
          ~doc:"coverage, injection, singlecore, or all.")
  in
  let run size seeds part =
    let open Velodrome_harness.Study in
    let ppf = Format.std_formatter in
    List.iter
      (fun (name, title, print) ->
        if part = name || part = "all" then begin
          Format.printf "Study %s@." title;
          print ()
        end)
      [
        ( "coverage",
          "S2: adversarial scheduling coverage",
          fun () -> print_coverage ppf (coverage ~size ~seeds ()) );
        ( "injection",
          "S3: injected synchronization defects",
          fun () -> print_injection ppf (injection ~size ~seeds ()) );
        ( "singlecore",
          "S4: single-core scheduling sensitivity",
          fun () -> print_single_core ppf (single_core ~size ~seeds ()) );
      ]
  in
  Cmd.v
    (Cmd.info "study" ~doc:"Adversarial scheduling studies.")
    Term.(const run $ size_arg $ seeds_arg $ part)

(* --- multicore serving ---------------------------------------------------- *)

module Serve = Velodrome_serve.Serve

let serve_cmd =
  let targets =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"TARGET"
          ~doc:
            "Trace files, or directories scanned (non-recursively) for \
             *.velb and *.trace entries.")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains. Defaults to the recommended domain count, \
             clamped to the number of streams.")
  in
  let stats_flag =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Report per-stream timings and a pool summary to stderr.")
  in
  let run targets analyses jobs stats fmt =
    let paths =
      match Serve.expand_targets targets with
      | Ok paths -> paths
      | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 2
    in
    let backends = make_backends analyses in
    let total = List.length paths in
    (* Per-stream output is check-trace's own (same check, same printer),
       and the ordered merge emits it in submission order — so the whole
       stdout is independent of --jobs and equal to a sequential sweep. *)
    let print_result (r : Serve.result) =
      print_outcome r.Serve.path r.Serve.outcome;
      if stats then begin
        let (Driver.Checked { events; warnings }
            | Driver.Failed { events; warnings; _ }) =
          r.Serve.outcome
        in
        Printf.eprintf
          "[serve] %d/%d %s: %d events, %d warnings, wait %.2fms, check %.2fms\n%!"
          (r.Serve.index + 1) total r.Serve.path events
          (Driver.warning_count warnings)
          (Int64.to_float r.Serve.wait_ns /. 1e6)
          (Int64.to_float r.Serve.check_ns /. 1e6)
      end
    in
    let s =
      Serve.run ?jobs ~format:fmt ~backends
        ~on_result:print_result paths
    in
    if stats then begin
      let secs = Int64.to_float s.Serve.elapsed_ns /. 1e9 in
      Printf.eprintf
        "[serve] %d streams, %d events, %d warnings, %d failed on %d domain(s): %.0f events/s, queue wait mean %.2fms, max resident %d (bound %d)\n%!"
        s.Serve.streams s.Serve.events s.Serve.warnings s.Serve.failed
        s.Serve.jobs
        (if secs > 0. then float_of_int s.Serve.events /. secs else 0.)
        (if s.Serve.streams > 0 then
           Int64.to_float s.Serve.queue_wait_ns /. 1e6
           /. float_of_int s.Serve.streams
         else 0.)
        s.Serve.max_resident
        (s.Serve.queue_capacity + s.Serve.jobs)
    end;
    if s.Serve.failed > 0 then exit 2
    else if s.Serve.warnings > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Check many trace streams concurrently on a pool of worker \
          domains, with deterministic, submission-ordered output."
       ~exits)
    Term.(
      const run $ targets
      $ analyses_arg [ "velodrome" ]
      $ jobs_arg $ stats_flag $ format_arg)

let () =
  let doc = "sound and complete dynamic atomicity checking (PLDI 2008)" in
  let info = Cmd.info "velodrome" ~version:"1.0.0" ~doc ~exits in
  let code =
    Cmd.eval
      (Cmd.group info
         [
           list_cmd; run_cmd; analyze_cmd; print_cmd;
           record_cmd; check_trace_cmd; serve_cmd; convert_cmd; minimize_cmd;
           fuzz_cmd;
           table1_cmd; table2_cmd; study_cmd;
         ])
  in
  (* Fold cmdliner's usage-error code into the documented 2. *)
  exit (if code = Cmd.Exit.cli_error then 2 else code)
