open Velodrome_trace
open Velodrome_analysis
open Helpers

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* A counting back-end used to observe what filters let through. *)
module Probe = struct
  type t = { mutable seen : Event.t list }

  let name = "probe"
  let create (_ : Names.t) = { seen = [] }
  let on_event t e = t.seen <- e :: t.seen
  let pause_hint _ _ = false
  let finish _ = ()
  let warnings _ = []
end

let probe_through wrap ops =
  let names = Names.create () in
  let state = Probe.create names in
  let packed =
    wrap
      (Backend.make
         (module struct
           include Probe

           let create _ = state
         end)
         names)
  in
  List.iter (Backend.on_event packed) (Event.of_ops ops);
  Backend.finish packed;
  List.rev_map (fun e -> e.Event.op) state.Probe.seen

let test_empty_backend () =
  let names = Names.create () in
  let b = Backend.make (module Empty) names in
  let ws = Backend.run_events [ b ] (Event.of_ops [ rd t0 x; wr t1 y ]) in
  check int "no warnings" 0 (List.length ws)

let test_dispatch_order () =
  let names = Names.create () in
  let b1 = Backend.make (module Empty) names in
  let b2 = Backend.make (module Empty) names in
  check Alcotest.string "names" "empty" (Backend.name b1);
  let ws =
    Backend.run_trace [ b1; b2 ] (Trace.of_ops [ rd t0 x; rd t1 x ])
  in
  check int "still no warnings" 0 (List.length ws)

let test_reentrant_filter () =
  let ops =
    [ acq t0 m; acq t0 m; rd t0 x; rel t0 m; rel t0 m; acq t1 m; rel t1 m ]
  in
  let seen = probe_through Filters.reentrant_locks ops in
  check int "nested pair dropped" 5 (List.length seen);
  check bool "outermost acquire kept" true (List.mem (acq t0 m) seen);
  check bool "other thread unaffected" true (List.mem (acq t1 m) seen)

let test_reentrant_filter_depth3 () =
  let ops = [ acq t0 m; acq t0 m; acq t0 m; rel t0 m; rel t0 m; rel t0 m ] in
  let seen = probe_through Filters.reentrant_locks ops in
  check int "only outermost pair" 2 (List.length seen)

let test_thread_local_filter () =
  let ops = [ wr t0 x; rd t0 x; rd t1 x; wr t0 x; wr t0 y ] in
  let seen = probe_through Filters.thread_local ops in
  (* First two accesses are owner-only and dropped; t1's read shares x and
     is forwarded, as is everything on x afterwards; y stays local. *)
  check int "forwarded" 2 (List.length seen);
  check bool "sharing access first" true (List.hd seen = rd t1 x)

let test_thread_local_nonaccess_passthrough () =
  let ops = [ acq t0 m; wr t0 x; rel t0 m ] in
  let seen = probe_through Filters.thread_local ops in
  check int "locks pass through" 2 (List.length seen)

(* A back-end that emits one warning per transaction end, so filter
   composition can be checked to preserve warning order and content. *)
module Warner = struct
  type t = { mutable ws : Warning.t list }

  let name = "warner"
  let create (_ : Names.t) = { ws = [] }

  let on_event t e =
    match e.Event.op with
    | Op.End tid ->
      t.ws <-
        Warning.make ~analysis:"warner" ~kind:Warning.Race ~tid
          ~index:e.Event.index "end"
        :: t.ws
    | _ -> ()

  let pause_hint _ _ = false
  let finish _ = ()
  let warnings t = List.rev t.ws
end

let warnings_through wrap ops =
  let names = Names.create () in
  let packed = wrap (Backend.make (module Warner) names) in
  List.map
    (fun (w : Warning.t) -> (w.Warning.index, w.Warning.tid))
    (Backend.run_events [ packed ] (Event.of_ops ops))

let test_filter_warning_order () =
  let ops =
    [ bg t0 l0; rd t0 x; en t0; bg t1 l1; wr t1 x; en t1; bg t0 l0; en t0 ]
  in
  let plain = warnings_through Fun.id ops in
  check int "three warnings" 3 (List.length plain);
  (* Filters must neither reorder nor re-index the warnings the inner
     back-end produces, in either composition order. *)
  check bool "thread-local preserves order" true
    (plain = warnings_through Filters.thread_local ops);
  check bool "thread-local+reentrant preserves order" true
    (plain
    = warnings_through
        (fun b -> Filters.reentrant_locks (Filters.thread_local b))
        ops);
  check bool "reentrant+thread-local preserves order" true
    (plain
    = warnings_through
        (fun b -> Filters.thread_local (Filters.reentrant_locks b))
        ops)

let test_warning_dedup () =
  let mk label index =
    Warning.make ~analysis:"a" ~kind:Warning.Atomicity_violation
      ?label ~index "msg"
  in
  let ws =
    [ mk (Some l0) 1; mk (Some l0) 2; mk (Some l1) 3; mk None 4; mk None 5 ]
  in
  let d = Warning.dedup_by_label ws in
  (* Two labelled survivors plus one anonymous (same var/tid key). *)
  check int "deduplicated" 3 (List.length d)

let test_warning_pp () =
  let names = Names.create () in
  let l = Names.label names "Set.add" in
  let w =
    Warning.make ~analysis:"velodrome" ~kind:Warning.Atomicity_violation
      ~label:l ~index:7 "cycle"
  in
  let s = Format.asprintf "%a" (Warning.pp names) w in
  check bool "mentions method" true
    (let needle = "Set.add" in
     let nl = String.length needle and hl = String.length s in
     let rec go i = i + nl <= hl && (String.sub s i nl = needle || go (i + 1)) in
     go 0)

let suite =
  ( "analysis",
    [
      Alcotest.test_case "empty backend" `Quick test_empty_backend;
      Alcotest.test_case "dispatch" `Quick test_dispatch_order;
      Alcotest.test_case "reentrant filter" `Quick test_reentrant_filter;
      Alcotest.test_case "reentrant depth 3" `Quick test_reentrant_filter_depth3;
      Alcotest.test_case "thread-local filter" `Quick test_thread_local_filter;
      Alcotest.test_case "thread-local passthrough" `Quick
        test_thread_local_nonaccess_passthrough;
      Alcotest.test_case "filter warning order" `Quick
        test_filter_warning_order;
      Alcotest.test_case "warning dedup" `Quick test_warning_dedup;
      Alcotest.test_case "warning pp" `Quick test_warning_pp;
    ] )
