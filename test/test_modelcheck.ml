(* The model checker checking itself — and the serve pool.

   Fast subset of the model-checking gate, suitable for every `dune
   runtest`: explorer sanity on micro-scenarios (a seeded data race must
   be flagged, its fixed variants verified, DPOR must agree with the
   unreduced full search), the cheaper pool scenarios pinned to their
   exact deterministic interleaving counts, and the two pool mutants
   each producing a replayable counterexample. The three-stream
   scenario (about 40k interleavings, several seconds) runs in CI via
   test/mc_run.exe rather than here. *)

module Explore = Velodrome_modelcheck.Explore
module Shim = Velodrome_modelcheck.Shim

(* --- micro-scenarios: the explorer itself ------------------------------- *)

(* Two unsynchronized read-modify-write increments: the lost update must
   be found. *)
let racy_counter =
  {
    Explore.name = "racy-counter";
    init =
      (fun () ->
        let c = Shim.Plain.make 0 in
        let bump () = Shim.Plain.set c (Shim.Plain.get c + 1) in
        let check () =
          Explore.require (Shim.Plain.get c = 2) "lost update"
        in
        ([ bump; bump ], check));
    }

(* The same counter protected by a mutex: every interleaving passes. *)
let mutex_counter =
  {
    Explore.name = "mutex-counter";
    init =
      (fun () ->
        let c = Shim.Plain.make 0 in
        let m = Shim.Mutex.create () in
        let bump () =
          Shim.Mutex.lock m;
          Shim.Plain.set c (Shim.Plain.get c + 1);
          Shim.Mutex.unlock m
        in
        let check () =
          Explore.require (Shim.Plain.get c = 2) "lost update"
        in
        ([ bump; bump ], check));
  }

let schedules = function
  | Explore.Verified { schedules; _ } -> schedules
  | _ -> -1

let check_verified name outcome =
  match outcome with
  | Explore.Verified _ -> ()
  | o ->
    Alcotest.failf "%s: expected Verified, got %a" name Explore.pp_outcome o

let test_racy_counter_flagged () =
  match Explore.explore_minimized racy_counter with
  | Explore.Violation { kind = Explore.Check_failed _; trace; _ } ->
    (* The minimized counterexample is one preemption: P1's write lands
       between P0's read and write (or symmetrically). *)
    let plan = List.map (fun (s : Explore.step) -> s.pid) trace in
    Alcotest.(check bool)
      "minimized to a single preemption" true
      (Explore.switches plan <= 2);
    (* The printed schedule is a proof: it must replay to the same
       violation. *)
    (match Explore.replay racy_counter plan with
    | Explore.Violation { kind = Explore.Check_failed _; _ } -> ()
    | o ->
      Alcotest.failf "counterexample did not replay: %a" Explore.pp_outcome o)
  | o -> Alcotest.failf "race not flagged: %a" Explore.pp_outcome o

let test_mutex_counter_verified () =
  check_verified "mutex-counter" (Explore.explore mutex_counter)

let test_deadlock_found () =
  (* Classic lock-order inversion: P0 takes a then b, P1 takes b then
     a. *)
  let scenario =
    {
      Explore.name = "lock-order-inversion";
      init =
        (fun () ->
          let a = Shim.Mutex.create () and b = Shim.Mutex.create () in
          let locker x y () =
            Shim.Mutex.lock x;
            Shim.Mutex.lock y;
            Shim.Mutex.unlock y;
            Shim.Mutex.unlock x
          in
          ([ locker a b; locker b a ], fun () -> ()));
    }
  in
  match Explore.explore_minimized scenario with
  | Explore.Violation { kind = Explore.Deadlock _; _ } -> ()
  | o -> Alcotest.failf "deadlock not found: %a" Explore.pp_outcome o

let test_dpor_agrees_with_full () =
  (* The reduction must not change the verdict, only the work: compare
     against the unreduced search on scenarios small enough to afford
     it. *)
  List.iter
    (fun (name, sc) ->
      let dpor = Explore.explore ~mode:`Dpor sc in
      let full = Explore.explore ~mode:`Full sc in
      check_verified (name ^ " (dpor)") dpor;
      check_verified (name ^ " (full)") full;
      Alcotest.(check bool)
        (name ^ ": dpor explores no more than full")
        true
        (schedules dpor <= schedules full))
    [
      ("mutex-counter", mutex_counter);
      ("pool-2-streams", Mc_scenarios.Healthy.two);
    ]

(* --- the pool scenarios ------------------------------------------------- *)

(* Interleaving counts are fully deterministic (ids, search order and
   reduction are all replayable), so pin them: an unexplained change
   means the explored space changed. *)
let test_pool_scenarios_verified () =
  List.iter
    (fun (name, sc, expect) ->
      match Explore.explore sc with
      | Explore.Verified { schedules; _ } ->
        Alcotest.(check int) (name ^ " interleavings") expect schedules
      | o -> Alcotest.failf "%s: %a" name Explore.pp_outcome o)
    [
      ("pool-2-streams", Mc_scenarios.Healthy.two, 2_377);
      ("pool-1-worker", Mc_scenarios.Healthy.one_worker, 131);
      ("pool-shut-early", Mc_scenarios.Healthy.shut_early, 5_431);
    ]

(* --- the mutation gate -------------------------------------------------- *)

let test_mutant_flagged (sc : Explore.scenario) expect_kind () =
  match Explore.explore_minimized ~max_steps:500 sc with
  | Explore.Violation { kind; trace; _ } ->
    Alcotest.(check bool)
      (sc.Explore.name ^ ": violation kind")
      true (expect_kind kind);
    let plan = List.map (fun (s : Explore.step) -> s.pid) trace in
    (match Explore.replay ~max_steps:500 sc plan with
    | Explore.Violation { kind = kind'; _ } ->
      Alcotest.(check bool) "replay reproduces the same kind" true
        (match (kind, kind') with
        | Explore.Deadlock _, Explore.Deadlock _
        | Explore.Check_failed _, Explore.Check_failed _
        | Explore.Uncaught _, Explore.Uncaught _
        | Explore.Livelock _, Explore.Livelock _ ->
          true
        | _ -> false)
    | o ->
      Alcotest.failf "counterexample did not replay: %a" Explore.pp_outcome o)
  | o -> Alcotest.failf "seeded bug not flagged: %a" Explore.pp_outcome o

let test_broadcast_mutant =
  (* A broadcast that wakes nobody: the first wait is forever. *)
  test_mutant_flagged Mc_scenarios.Mute.three (function
    | Explore.Deadlock _ -> true
    | _ -> false)

let test_mutex_mutant () =
  (* Lock and unlock that exclude nothing: the search first reaches a
     lost wakeup — a predicate read, then the broadcast, then the wait
     — and the same mutant checks a stream twice when the second worker
     reads the take counter before the first one writes it back. *)
  test_mutant_flagged Mc_scenarios.Unlocked.three
    (function
      | Explore.Deadlock _ | Explore.Check_failed _ -> true
      | _ -> false)
    ();
  match
    Explore.replay ~max_steps:500 Mc_scenarios.Unlocked.three
      Mc_scenarios.checked_twice
  with
  | Explore.Violation { kind = Explore.Check_failed msg; _ } ->
    Alcotest.(check string) "double check" "P1: stream 0 checked twice" msg
  | o -> Alcotest.failf "double check not replayed: %a" Explore.pp_outcome o

let suite =
  ( "modelcheck",
    [
      Alcotest.test_case "racy counter flagged, minimized, replays" `Quick
        test_racy_counter_flagged;
      Alcotest.test_case "mutex counter verified" `Quick
        test_mutex_counter_verified;
      Alcotest.test_case "lock-order inversion deadlocks" `Quick
        test_deadlock_found;
      Alcotest.test_case "dpor agrees with full search" `Quick
        test_dpor_agrees_with_full;
      Alcotest.test_case "pool scenarios verified (pinned counts)" `Quick
        test_pool_scenarios_verified;
      Alcotest.test_case "mutant: broadcast no-op" `Quick
        test_broadcast_mutant;
      Alcotest.test_case "mutant: mutex no-op" `Quick test_mutex_mutant;
    ] )
