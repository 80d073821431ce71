(* The streaming driver and its headline guarantee: replaying a trace
   from a file in bounded memory produces exactly the warnings the
   in-memory replay produces, on every back-end. *)

open Velodrome_trace
open Velodrome_analysis
open Velodrome_stream
open Helpers

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* Every packaged back-end, by registry name. *)
let all_backends : (string * (unit -> (module Backend.S))) list =
  [
    ("velodrome", fun () -> Velodrome_core.Engine.backend ());
    ("velodrome-basic", fun () -> Velodrome_core.Basic.backend ());
    ("aero", fun () -> Velodrome_core.Aero.backend ());
    ("eraser", fun () -> Velodrome_eraser.Eraser.backend ());
    ("atomizer", fun () -> Velodrome_atomizer.Atomizer.backend ());
    ("hb", fun () -> Velodrome_hbrace.Hbrace.backend ());
    ("empty", fun () -> (module Empty : Backend.S));
  ]

(* The projection and in-memory runner are shared with the other
   differential suites (Helpers.project_warning / trace_warnings). *)
let project = project_warning
let inmem_warnings mk tr = trace_warnings mk tr

let with_encoded suffix write tr f =
  let path = Filename.temp_file "velodrome_stream" suffix in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write (Names.create ()) tr path;
      f path)

let stream_warnings path mk =
  Source.with_file path (fun src ->
      let b = Backend.make (mk ()) src.Source.names in
      let _, ws = Driver.run [ b ] src in
      List.map project ws)

(* --- the differential properties ------------------------------------------- *)

let diff_cfg =
  {
    Velodrome_trace.Gen.default with
    threads = 4;
    vars = 3;
    locks = 2;
    steps = 50;
  }

let diff_prop (name, mk) =
  QCheck.Test.make ~count:300
    ~name:
      (Printf.sprintf
         "streaming binary replay = in-memory replay (%s warnings)" name)
    (trace_arbitrary diff_cfg)
    (fun tr ->
      with_encoded ".velb" Trace_codec.write_file tr (fun path ->
          stream_warnings path mk = inmem_warnings mk tr))

let diff_props = List.map diff_prop all_backends

(* The same property over the textual streaming path (one back-end is
   enough: the driver and source are shared; the parsers differ). The
   trace is canonicalized through the text format first — parsing
   renumbers ids in first-use order, so both sides must start from the
   same numbering. *)
let prop_text_stream =
  QCheck.Test.make ~count:100
    ~name:"streaming text replay = in-memory replay (velodrome warnings)"
    (trace_arbitrary diff_cfg)
    (fun tr ->
      let mk () = Velodrome_core.Engine.backend () in
      let names, tr =
        Trace_io.of_string (Trace_io.to_string (Names.create ()) tr)
      in
      let inmem =
        List.map project (Backend.run_trace [ Backend.make (mk ()) names ] tr)
      in
      let path = Filename.temp_file "velodrome_stream" ".trace" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Trace_io.write_file names tr path;
          stream_warnings path mk = inmem))

(* --- ill-formed streams -------------------------------------------------------

   One defect spliced into a well-formed generated trace: a duplicated
   acquire, a release of a just-acquired lock by another thread, or an
   [End] by a thread that never began a block. The driver must stop at
   exactly the operation Trace.check blames, before any back-end sees it,
   so every back-end's warnings are those of the well-formed prefix. *)

let inject (kind, pick) tr =
  let ops = Trace.ops tr in
  let n = Array.length ops in
  let acquires =
    List.filter_map
      (fun i ->
        match ops.(i) with Op.Acquire (u, m) -> Some (i, u, m) | _ -> None)
      (List.init n Fun.id)
  in
  let splice at op =
    Trace.of_array
      (Array.concat
         [ Array.sub ops 0 at; [| op |]; Array.sub ops at (n - at) ])
  in
  match (kind, acquires) with
  | 0, _ :: _ ->
    let i, u, m = List.nth acquires (pick mod List.length acquires) in
    splice (i + 1) (Op.Acquire (u, m))
  | 1, _ :: _ ->
    let i, u, m = List.nth acquires (pick mod List.length acquires) in
    splice (i + 1) (Op.Release (Ids.Tid.of_int (Ids.Tid.to_int u + 1), m))
  | _ ->
    let fresh =
      List.fold_left (fun a t -> max a (Ids.Tid.to_int t + 1)) 0
        (Trace.threads tr)
    in
    splice (pick mod (n + 1)) (Op.End (Ids.Tid.of_int fresh))

let violation_index = function
  | Trace.Acquire_held (i, _) | Trace.Release_unheld (i, _)
  | Trace.End_without_begin (i, _) ->
    i

let prop_ill_formed_prefix =
  QCheck.Test.make ~count:300
    ~name:
      "ill-formed stream: driver stops where Trace.check does, prefix warnings"
    QCheck.(
      triple (trace_arbitrary diff_cfg) (int_bound 2) (int_bound 1_000_000))
    (fun (tr, kind, pick) ->
      let tr = inject (kind, pick) tr in
      let mk names =
        List.map (fun (_, mk) -> Backend.make (mk ()) names) all_backends
      in
      match Trace.check tr with
      | Ok () -> QCheck.Test.fail_report "injected defect not detected"
      | Error v -> (
        let at = violation_index v in
        let prefix = Trace.of_array (Array.sub (Trace.ops tr) 0 at) in
        let expected =
          List.map project (Backend.run_trace (mk (Names.create ())) prefix)
        in
        let names = Names.create () in
        let bs = mk names in
        match Driver.run bs (Source.of_trace names tr) with
        | _ -> QCheck.Test.fail_report "ill-formed stream replayed to the end"
        | exception Driver.Interrupted { events; error = Trace.Ill_formed v' }
          ->
          events = at && v' = v
          && List.map project (List.concat_map Backend.warnings bs) = expected))

(* --- driver mechanics ------------------------------------------------------- *)

let test_driver_counts_events () =
  let tr = Gen.run (Velodrome_util.Rng.create 11) Gen.default in
  let names = Names.create () in
  let b = Backend.make (Velodrome_core.Engine.backend ()) names in
  let events, _ = Driver.run [ b ] (Source.of_trace names tr) in
  check int "event count" (Trace.length tr) events

let test_driver_progress_ticks () =
  let tr = Gen.run (Velodrome_util.Rng.create 5) Gen.default in
  let names = Names.create () in
  let b = Backend.make (Velodrome_core.Engine.backend ()) names in
  let ticks = ref [] in
  let live = ref 0 in
  let events, _ =
    Driver.run
      ~progress:(fun s ->
        ticks := s.Driver.events :: !ticks;
        match s.Driver.live_nodes with
        | Some n -> live := n
        | None -> Alcotest.fail "probe not consulted")
      ~every:10
      ~live_nodes:(fun () -> 42)
      [ b ]
      (Source.of_trace names tr)
  in
  let ticks = List.rev !ticks in
  check int "final tick reports the total" events (List.nth ticks (List.length ticks - 1));
  check bool "ticks strictly increase" true
    (List.sort_uniq compare ticks = ticks);
  check bool "interval respected" true
    (List.for_all (fun t -> t mod 10 = 0 || t = events) ticks);
  check int "probe value surfaced" 42 !live

let test_source_lengths () =
  let tr = Trace.of_ops [ wr t0 x; rd t1 x ] in
  let streamed write ext =
    with_encoded ext write tr (fun path ->
        Source.with_file path (fun src ->
            let seen = ref 0 in
            src.Source.iter (fun _ -> incr seen);
            !seen))
  in
  check int "binary events streamed" 2 (streamed Trace_codec.write_file ".velb");
  check int "text events streamed" 2 (streamed Trace_io.write_file ".trace")

let test_multi_backend_order () =
  (* Warnings concatenate in back-end order, matching Backend.run_events. *)
  let tr = Trace.of_ops [ wr t0 x; wr t1 x ] in
  let mk names =
    [
      Backend.make (Velodrome_eraser.Eraser.backend ()) names;
      Backend.make (Velodrome_hbrace.Hbrace.backend ()) names;
    ]
  in
  let names = Names.create () in
  let inmem = List.map project (Backend.run_trace (mk names) tr) in
  let streamed =
    with_encoded ".velb" Trace_codec.write_file tr (fun path ->
        Source.with_file path (fun src ->
            let _, ws = Driver.run (mk src.Source.names) src in
            List.map project ws))
  in
  check bool "same concatenation" true (streamed = inmem);
  check int "two analyses reported" 2 (List.length streamed)

let suite =
  ( "stream",
    Alcotest.test_case "driver counts events" `Quick test_driver_counts_events
    :: Alcotest.test_case "driver progress ticks" `Quick
         test_driver_progress_ticks
    :: Alcotest.test_case "source lengths" `Quick test_source_lengths
    :: Alcotest.test_case "multi-backend order" `Quick test_multi_backend_order
    :: List.map (QCheck_alcotest.to_alcotest ~long:false)
         (diff_props @ [ prop_text_stream; prop_ill_formed_prefix ]) )
