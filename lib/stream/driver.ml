open Velodrome_trace
open Velodrome_analysis

type stats = {
  events : int;
  warnings : int;
  live_nodes : int option;
  allocated_words : float;
  minor_collections : int;
  major_collections : int;
}

let default_interval = 100_000

exception Interrupted of { events : int; error : exn }

let run ?progress ?(every = default_interval) ?live_nodes backends
    (src : Source.t) =
  let count = ref 0 in
  let tick report =
    let g = Gc.quick_stat () in
    report
      {
        events = !count;
        warnings =
          List.fold_left
            (fun acc b -> acc + List.length (Backend.warnings b))
            0 backends;
        live_nodes = Option.map (fun probe -> probe ()) live_nodes;
        allocated_words =
          Velodrome_util.Stats.allocated_bytes ()
          /. float_of_int (Sys.word_size / 8);
        minor_collections = g.Gc.minor_collections;
        major_collections = g.Gc.major_collections;
      }
  in
  let every = max 1 every in
  (* Dense array + counted loop: [List.iter] with an inline closure would
     allocate a closure capturing [e] on every event. *)
  let bs = Array.of_list backends in
  let nb = Array.length bs in
  (* An ill-formed event raises here, before any back-end sees it, and
     ends the stream like a truncation. *)
  let wf = Trace.Checker.create () in
  let on_event =
    match progress with
    | None ->
      fun e ->
        Trace.Checker.step wf !count e.Event.op;
        for i = 0 to nb - 1 do
          Backend.on_event bs.(i) e
        done;
        incr count
    | Some report ->
      fun e ->
        Trace.Checker.step wf !count e.Event.op;
        for i = 0 to nb - 1 do
          Backend.on_event bs.(i) e
        done;
        incr count;
        if !count mod every = 0 then tick report
  in
  (try src.Source.iter on_event
   with error ->
     (* A truncated, damaged or ill-formed stream still yields a partial
        result: the events consumed and warnings raised so far are valid
        — the trace prefix really happened — so finish the back-ends,
        emit one last progress tick, and hand the caller everything
        alongside the original error. *)
     List.iter Backend.finish backends;
     Option.iter tick progress;
     raise (Interrupted { events = !count; error }));
  List.iter Backend.finish backends;
  Option.iter tick progress;
  (!count, List.concat_map Backend.warnings backends)

(* --- one stream, checked and rendered ---------------------------------------- *)

type format = [ `Human | `Json ]

type rendered = Lines of string list | Objects of Velodrome_util.Json.t list

type outcome =
  | Checked of { events : int; warnings : rendered }
  | Failed of { events : int; warnings : rendered; message : string }

let warning_count = function
  | Lines l -> List.length l
  | Objects l -> List.length l

(* Renders the kept warnings in the one format the caller prints. *)
let render format names warnings =
  let kept = Warning.dedup_by_label warnings in
  match format with
  | `Human -> Lines (List.map (Format.asprintf "%a" (Warning.pp names)) kept)
  | `Json -> Objects (List.map (Warning.to_json names) kept)

let error_line path = function
  | Trace_codec.Corrupt msg ->
    Printf.sprintf "%s: corrupt binary trace: %s" path msg
  | Trace_io.Syntax_error (line, msg) ->
    Printf.sprintf "%s:%d: %s" path line msg
  | Trace.Ill_formed v ->
    Format.asprintf "%s: ill-formed trace: %a" path Trace.pp_violation v
  | Velodrome_core.Pool.Slots_exhausted ->
    Printf.sprintf
      "%s: engine limit: more than %d transaction nodes alive at once (the \
       slot space of a packed step)"
      path Velodrome_core.Step.max_slots
  | Sys_error msg when String.starts_with ~prefix:(path ^ ":") msg -> msg
  | Sys_error msg -> Printf.sprintf "%s: %s" path msg
  | e -> Printf.sprintf "%s: %s" path (Printexc.to_string e)

let check_file ?progress ?every ?live_nodes ~backends ~format path =
  match
    Source.with_file path (fun src ->
        let names = src.Source.names in
        let bs = backends names in
        match run ?progress ?every ?live_nodes bs src with
        | events, warnings ->
          Checked { events; warnings = render format names warnings }
        | exception Interrupted { events; error } ->
          Failed
            {
              events;
              warnings =
                render format names (List.concat_map Backend.warnings bs);
              message = error_line path error;
            })
  with
  | outcome -> outcome
  (* Header-level damage surfaces before iteration starts. *)
  | exception ((Trace_codec.Corrupt _ | Sys_error _) as e) ->
    let warnings =
      match format with `Human -> Lines [] | `Json -> Objects []
    in
    Failed { events = 0; warnings; message = error_line path e }
