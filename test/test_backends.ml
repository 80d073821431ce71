(* Tests for the baseline analyses: Eraser, the happens-before detector
   (with its vector clocks), the Atomizer and the two-phase-locking
   checker — plus the AeroDrome vector-clock engine. The three-way
   differential holding it to Engine and Basic on recorded traces is an
   obligation of the soundness gate (Velodrome_harness.Gate), checked on
   every workload and on generated programs by the statics gate tests. *)

open Velodrome_trace
open Velodrome_analysis
open Helpers

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* --- Eraser ----------------------------------------------------------------- *)

let eraser = Velodrome_eraser.Eraser.backend ()

let test_eraser_detects_race () =
  let ws = feed eraser [ wr t0 x; wr t1 x ] in
  check int "one race" 1 (List.length ws);
  match ws with
  | [ w ] ->
    check bool "race kind" true (w.Warning.kind = Warning.Race);
    check bool "names x" true (w.Warning.var = Some x)
  | _ -> assert false

let test_eraser_locked_clean () =
  let ws =
    feed eraser
      [
        acq t0 m; wr t0 x; rel t0 m;
        acq t1 m; rd t1 x; wr t1 x; rel t1 m;
      ]
  in
  check int "no warnings" 0 (List.length ws)

let test_eraser_read_shared_clean () =
  (* Write by one thread then reads everywhere: Shared but never
     Shared-Modified, so no warning. *)
  let ws = feed eraser [ wr t0 x; rd t1 x; rd t2 x; rd t1 x ] in
  check int "read-only sharing ok" 0 (List.length ws)

let test_eraser_exclusive_then_shared_modified () =
  (* The classic initialization pattern Eraser tolerates: one thread
     initializes without locks, then all threads use a lock. *)
  let ws =
    feed eraser
      [ wr t0 x; wr t0 x; acq t1 m; wr t1 x; rel t1 m; acq t0 m; wr t0 x; rel t0 m ]
  in
  check int "lockset survives" 0 (List.length ws)

let test_eraser_lockset_intersection () =
  (* Accesses under different locks: the candidate lockset intersects to
     empty on the third access. *)
  let ws =
    feed eraser
      [
        acq t0 m; wr t0 x; rel t0 m;
        acq t1 n; wr t1 x; rel t1 n;
        acq t0 m; wr t0 x; rel t0 m;
      ]
  in
  check int "different locks race" 1 (List.length ws)

let test_eraser_volatile_exempt () =
  let names = Names.create () in
  let v = Names.var names "flag" in
  Names.set_volatile names v;
  let ws = feed eraser ~names [ Op.Write (t0, v); Op.Write (t1, v) ] in
  check int "volatiles exempt" 0 (List.length ws)

let test_eraser_dedup_per_var () =
  let ws = feed eraser [ wr t0 x; wr t1 x; wr t0 x; wr t1 x ] in
  check int "one warning per variable" 1 (List.length ws)

(* --- Vector clocks ------------------------------------------------------------ *)

let test_vclock_basics () =
  let open Velodrome_util.Vclock in
  let a = create () and b = create () in
  set a 0 3;
  set b 1 2;
  check bool "incomparable" false (leq a b || leq b a);
  join a b;
  check bool "join dominates" true (leq b a);
  check int "kept own" 3 (get a 0);
  check int "absent reads zero" 0 (get a 7);
  incr a 7;
  check int "incr" 1 (get a 7);
  let c = copy a in
  incr a 7;
  check int "copy is independent" 1 (get c 7)

(* --- Happens-before race detector ----------------------------------------------- *)

let hb = Velodrome_hbrace.Hbrace.backend ()

let test_hb_detects_unordered () =
  let ws = feed hb [ wr t0 x; wr t1 x ] in
  check int "race" 1 (List.length ws)

let test_hb_lock_orders () =
  let ws =
    feed hb
      [ acq t0 m; wr t0 x; rel t0 m; acq t1 m; wr t1 x; rel t1 m ]
  in
  check int "release/acquire edge orders accesses" 0 (List.length ws)

let test_hb_transitive () =
  (* t0 -> t1 through m, t1 -> t2 through n: t2's access is ordered
     after t0's even though they share no lock. *)
  let ws =
    feed hb
      [
        wr t0 x; acq t0 m; rel t0 m;
        acq t1 m; rel t1 m; acq t1 n; rel t1 n;
        acq t2 n; rel t2 n; wr t2 x;
      ]
  in
  check int "transitive ordering" 0 (List.length ws)

let test_hb_read_write_race () =
  let ws = feed hb [ rd t0 x; wr t1 x ] in
  check int "read-write race" 1 (List.length ws)

let test_hb_not_fooled_by_unrelated_lock () =
  let ws =
    feed hb [ acq t0 m; wr t0 x; rel t0 m; acq t1 n; wr t1 x; rel t1 n ]
  in
  check int "different locks do not order" 1 (List.length ws)

let test_hb_program_order_clean () =
  let ws = feed hb [ wr t0 x; rd t0 x; wr t0 x ] in
  check int "single thread clean" 0 (List.length ws)

let test_hb_locked_read_then_write () =
  let ws =
    feed hb
      [ acq t0 m; wr t0 x; rel t0 m; acq t1 m; rd t1 x; wr t1 x; rel t1 m ]
  in
  check int "lock-ordered read-modify-write is clean" 0 (List.length ws)

(* Concurrent reads by t0 and t1; t2 then synchronizes through n. A write
   ordered after only the later read still races with the earlier one,
   so the detector must keep every reader's clock, not just the last. *)
let test_hb_shared_reads_then_write () =
  let shared =
    [ acq t0 m; wr t0 x; rel t0 m; acq t1 m; rel t1 m; rd t0 x; rd t1 x ]
  in
  let t1_to_t2 = [ acq t1 n; rel t1 n; acq t2 n; rel t2 n; wr t2 x ] in
  let ws = feed hb (shared @ t1_to_t2) in
  check int "write races with the unordered reader" 1 (List.length ws);
  let ws = feed hb (shared @ [ acq t0 n; rel t0 n ] @ t1_to_t2) in
  check int "write ordered after both readers is clean" 0 (List.length ws)

(* --- Atomizer ----------------------------------------------------------------- *)

let atomizer = Velodrome_atomizer.Atomizer.backend ()

let test_atomizer_reducible_clean () =
  (* acquire; accesses; release = right-mover, both-movers, left-mover. *)
  let ws =
    feed atomizer
      [
        bg t0 l0; acq t0 m; rd t0 x; wr t0 x; rel t0 m; en t0;
        bg t1 l0; acq t1 m; rd t1 x; wr t1 x; rel t1 m; en t1;
      ]
  in
  check int "reducible" 0 (List.length ws)

let test_atomizer_two_locks_nested_clean () =
  let ws =
    feed atomizer
      [ bg t0 l0; acq t0 m; acq t0 n; wr t0 x; rel t0 n; rel t0 m; en t0 ]
  in
  check int "nested locks reducible" 0 (List.length ws)

let test_atomizer_acquire_after_release () =
  (* Two back-to-back synchronized blocks in one atomic method: the
     acquire after the first release breaks the pattern. *)
  let ops =
    [
      (* Make x and y shared first so the lockset machinery is active. *)
      acq t1 m; rd t1 x; rd t1 y; rel t1 m;
      bg t0 l0; acq t0 m; rd t0 x; rel t0 m; acq t0 m; wr t0 y; rel t0 m;
      en t0;
    ]
  in
  let ws = feed atomizer ops in
  check int "flagged" 1 (List.length ws)

let test_atomizer_racy_rmw_flagged () =
  let ops =
    [
      wr t1 x;  (* x becomes shared with an empty lockset *)
      rd t0 x;
      bg t0 l0; rd t0 x; wr t0 x; en t0;
    ]
  in
  let ws = feed atomizer ops in
  check int "two non-movers flagged" 1 (List.length ws);
  match ws with
  | [ w ] -> check bool "attributed to block" true (w.Warning.label = Some l0)
  | _ -> assert false

let test_atomizer_single_racy_access_ok () =
  let ops = [ wr t1 x; rd t0 x; bg t0 l0; wr t0 x; en t0 ] in
  let ws = feed atomizer ops in
  check int "one commit point is fine" 0 (List.length ws)

let test_atomizer_volatile_false_alarm () =
  (* The Section 2 pattern: two volatile reads inside an atomic block are
     non-movers even though the trace is serializable. *)
  let names = Names.create () in
  let v = Names.var names "baton" in
  let ops = [ bg t0 l0; Op.Read (t0, v); Op.Read (t0, v); en t0 ] in
  Names.set_volatile names v;
  let ws = feed atomizer ~names ops in
  check int "false alarm produced" 1 (List.length ws)

let test_atomizer_outside_blocks_ignored () =
  let ws = feed atomizer [ wr t0 x; wr t1 x; rd t0 x; wr t0 x ] in
  check int "no atomic block, no warning" 0 (List.length ws)

let test_atomizer_pause_hint () =
  let names = Names.create () in
  let state = Velodrome_atomizer.Atomizer.create names in
  let idx = ref 0 in
  let step op =
    Velodrome_atomizer.Atomizer.on_event state
      (Event.make ~index:!idx op);
    incr idx
  in
  (* Make x racy, then enter a block and commit via a racy read. *)
  List.iter step [ wr t1 x; rd t0 x; bg t0 l0 ];
  let hint op =
    Velodrome_atomizer.Atomizer.pause_hint state (Event.make ~index:!idx op)
  in
  check bool "no hint before commit point" false (hint (wr t0 x));
  step (rd t0 x);
  check bool "hint at second non-mover" true (hint (wr t0 x));
  check bool "no hint for other thread" false (hint (wr t1 x));
  step (en t0);
  check bool "no hint outside block" false (hint (wr t0 x))

(* --- Two-phase locking ----------------------------------------------------------- *)

let twopl = Velodrome_twopl.Twopl.backend ()

let twopl_strict =
  Velodrome_twopl.Twopl.backend
    ~config:{ Velodrome_twopl.Twopl.strict = true } ()

let test_twopl_clean () =
  let ws =
    feed twopl
      [ bg t0 l0; acq t0 m; acq t0 n; rd t0 x; rel t0 n; rel t0 m; en t0 ]
  in
  check int "two-phase pattern ok" 0 (List.length ws)

let test_twopl_violation () =
  let ws =
    feed twopl
      [ bg t0 l0; acq t0 m; rel t0 m; acq t0 n; rel t0 n; en t0 ]
  in
  check int "acquire in shrinking phase" 1 (List.length ws);
  match ws with
  | [ w ] -> check bool "labelled" true (w.Warning.label = Some l0)
  | _ -> assert false

let test_twopl_resets_between_blocks () =
  (* The shrinking phase ends with the block: two separate well-formed
     blocks are each fine. *)
  let ws =
    feed twopl
      [
        bg t0 l0; acq t0 m; rel t0 m; en t0;
        bg t0 l1; acq t0 n; rel t0 n; en t0;
      ]
  in
  check int "per-block phases" 0 (List.length ws)

let test_twopl_outside_blocks_free () =
  let ws = feed twopl [ acq t0 m; rel t0 m; acq t0 n; rel t0 n ] in
  check int "no blocks, no discipline" 0 (List.length ws)

let test_twopl_strict_unprotected_access () =
  let ws = feed twopl_strict [ bg t0 l0; rd t0 x; en t0 ] in
  check int "unprotected access flagged" 1 (List.length ws)

let test_twopl_strict_volatile_exempt () =
  let names = Names.create () in
  let v = Names.var names "flag" in
  Names.set_volatile names v;
  let ws = feed twopl_strict ~names [ bg t0 l0; Op.Read (t0, v); en t0 ] in
  check int "volatile exempt" 0 (List.length ws)

let test_twopl_false_alarm_on_serializable () =
  (* 2PL is sufficient, not necessary: two back-to-back locked reads are
     serializable here (no interleaved writer) yet flagged. *)
  let tr =
    [ bg t0 l0; acq t0 m; rd t0 x; rel t0 m; acq t0 m; rd t0 x; rel t0 m; en t0 ]
  in
  check bool "trace is serializable" true
    (Velodrome_oracle.Oracle.serializable (Velodrome_trace.Trace.of_ops tr));
  let ws = feed twopl tr in
  check int "2pl still warns (false alarm)" 1 (List.length ws)

(* --- Vector clock lattice laws ------------------------------------------------ *)

module Vc = Velodrome_util.Vclock

(* Random clocks with entries well past the default capacity, so growth
   is exercised by every law. *)
let vclock_arbitrary =
  let build entries =
    let c = Vc.create () in
    List.iter (fun (i, v) -> Vc.set c i v) entries;
    c
  in
  QCheck.make
    ~print:(fun c -> Format.asprintf "%a" Vc.pp c)
    QCheck.Gen.(
      map build (small_list (pair (int_bound 40) (int_bound 8))))

let joined a b =
  let c = Vc.copy a in
  Vc.join c b;
  c

let prop_vclock_join_commutes =
  QCheck.Test.make ~count:500 ~name:"vclock: join commutes"
    QCheck.(pair vclock_arbitrary vclock_arbitrary)
    (fun (a, b) -> Vc.equal (joined a b) (joined b a))

let prop_vclock_join_assoc =
  QCheck.Test.make ~count:500 ~name:"vclock: join associates"
    QCheck.(triple vclock_arbitrary vclock_arbitrary vclock_arbitrary)
    (fun (a, b, c) ->
      Vc.equal (joined (joined a b) c) (joined a (joined b c)))

let prop_vclock_join_idempotent =
  QCheck.Test.make ~count:500 ~name:"vclock: join idempotent, upper bound"
    QCheck.(pair vclock_arbitrary vclock_arbitrary)
    (fun (a, b) ->
      let j = joined a b in
      Vc.equal j (joined j a) && Vc.leq a j && Vc.leq b j)

let prop_vclock_incr_monotone =
  QCheck.Test.make ~count:500 ~name:"vclock: incr strictly monotone"
    QCheck.(pair vclock_arbitrary (int_bound 50))
    (fun (a, i) ->
      let b = Vc.copy a in
      Vc.incr b i;
      Vc.leq a b && (not (Vc.leq b a)) && Vc.get b i = Vc.get a i + 1)

let prop_vclock_compare_agrees_with_order =
  QCheck.Test.make ~count:500 ~name:"vclock: compare = pointwise order"
    QCheck.(pair vclock_arbitrary vclock_arbitrary)
    (fun (a, b) ->
      let expected =
        match (Vc.leq a b, Vc.leq b a) with
        | true, true -> Vc.Equal
        | true, false -> Vc.Less
        | false, true -> Vc.Greater
        | false, false -> Vc.Incomparable
      in
      Vc.compare a b = expected && Vc.equal a b = (expected = Vc.Equal))

(* --- AeroDrome engine ---------------------------------------------------------- *)

module Aero = Velodrome_core.Aero

let aero = Aero.backend ()

let test_aero_detects_cycle () =
  (* The canonical violation: t1's write interposes between t0's write
     and read of x inside one atomic block — edges t0 -> t1 -> t0. *)
  let ws = feed aero [ bg t0 l0; wr t0 x; wr t1 x; rd t0 x; en t0 ] in
  check int "one violation" 1 (List.length ws);
  match ws with
  | [ w ] ->
    check bool "atomicity kind" true (w.Warning.kind = Warning.Atomicity_violation);
    check bool "blames the block" true (w.Warning.label = Some l0);
    check int "at the closing read" 3 w.Warning.index
  | _ -> assert false

let test_aero_serializable_clean () =
  let ws =
    feed aero
      [
        bg t0 l0; acq t0 m; wr t0 x; rd t0 x; rel t0 m; en t0;
        bg t1 l1; acq t1 m; wr t1 x; rd t1 x; rel t1 m; en t1;
      ]
  in
  check int "serializable" 0 (List.length ws)

let test_aero_lock_cycle () =
  (* Lock release/acquire edges alone can close the cycle. *)
  let ws =
    feed aero
      [
        bg t0 l0; acq t0 m; rel t0 m;
        acq t1 m; wr t1 x; rel t1 m;
        rd t0 x; en t0;
      ]
  in
  check int "lock edge cycle" 1 (List.length ws)

let test_aero_late_predecessor () =
  (* The subtlety the forward-propagation exists for: u's transaction
     gains a predecessor (w) *after* t has already joined u's clock, and
     the cycle then closes at w. Snapshot clocks would miss it. *)
  (* t1 reads x from t0's open txn; t0's txn then reads y written by t2;
     finally t2 reads z written by t1: cycle t0 -> t1 -> t2 -> t0 must
     surface at the last read. *)
  let ws =
    feed aero
      [
        bg t0 l0; bg t1 l1; bg t2 l2;
        wr t0 x; rd t1 x;  (* t0 -> t1 *)
        wr t2 y;  (* then t0 gains predecessor t2 *)
        wr t1 z;
        rd t0 y;  (* t2 -> t0 *)
        rd t2 z;  (* t1 -> t2 closes the cycle here *)
        en t0; en t1; en t2;
      ]
  in
  check int "transitive cycle found" 1 (List.length ws);
  match ws with
  | [ w ] -> check int "at the closing read" 8 w.Warning.index
  | _ -> assert false

let test_aero_unary_transactions () =
  (* Operations outside atomic blocks are unary transactions: they feed
     the happens-before state but never blame a label. *)
  let ws = feed aero [ wr t0 x; wr t1 x; rd t0 x; wr t1 x ] in
  List.iter
    (fun (w : Warning.t) -> check bool "no label" true (w.Warning.label = None))
    ws

let test_aero_matches_basic_counts () =
  let tr =
    Trace.of_ops
      [ bg t0 l0; wr t0 x; wr t1 x; rd t0 x; wr t1 x; rd t0 x; en t0 ]
  in
  let a = run_aero tr and b = run_basic tr in
  check int "cycles agree" (Velodrome_core.Basic.cycles_found b)
    (Aero.cycles_found a);
  check (Alcotest.option int) "first index agrees"
    (Velodrome_core.Basic.first_error_index b)
    (Aero.first_error_index a)

let suite =
  ( "backends",
    [
      Alcotest.test_case "eraser race" `Quick test_eraser_detects_race;
      Alcotest.test_case "eraser locked" `Quick test_eraser_locked_clean;
      Alcotest.test_case "eraser read-shared" `Quick test_eraser_read_shared_clean;
      Alcotest.test_case "eraser init pattern" `Quick
        test_eraser_exclusive_then_shared_modified;
      Alcotest.test_case "eraser intersection" `Quick
        test_eraser_lockset_intersection;
      Alcotest.test_case "eraser volatile" `Quick test_eraser_volatile_exempt;
      Alcotest.test_case "eraser dedup" `Quick test_eraser_dedup_per_var;
      Alcotest.test_case "vclock basics" `Quick test_vclock_basics;
      Alcotest.test_case "hb unordered" `Quick test_hb_detects_unordered;
      Alcotest.test_case "hb lock orders" `Quick test_hb_lock_orders;
      Alcotest.test_case "hb transitive" `Quick test_hb_transitive;
      Alcotest.test_case "hb read-write" `Quick test_hb_read_write_race;
      Alcotest.test_case "hb unrelated lock" `Quick
        test_hb_not_fooled_by_unrelated_lock;
      Alcotest.test_case "hb program order" `Quick test_hb_program_order_clean;
      Alcotest.test_case "hb locked read then write" `Quick
        test_hb_locked_read_then_write;
      Alcotest.test_case "hb shared reads then write" `Quick
        test_hb_shared_reads_then_write;
      Alcotest.test_case "atomizer reducible" `Quick test_atomizer_reducible_clean;
      Alcotest.test_case "atomizer nested locks" `Quick
        test_atomizer_two_locks_nested_clean;
      Alcotest.test_case "atomizer acq after rel" `Quick
        test_atomizer_acquire_after_release;
      Alcotest.test_case "atomizer racy rmw" `Quick test_atomizer_racy_rmw_flagged;
      Alcotest.test_case "atomizer single racy ok" `Quick
        test_atomizer_single_racy_access_ok;
      Alcotest.test_case "atomizer volatile FA" `Quick
        test_atomizer_volatile_false_alarm;
      Alcotest.test_case "atomizer outside" `Quick
        test_atomizer_outside_blocks_ignored;
      Alcotest.test_case "atomizer pause hint" `Quick test_atomizer_pause_hint;
      Alcotest.test_case "2pl clean" `Quick test_twopl_clean;
      Alcotest.test_case "2pl violation" `Quick test_twopl_violation;
      Alcotest.test_case "2pl per-block reset" `Quick
        test_twopl_resets_between_blocks;
      Alcotest.test_case "2pl outside blocks" `Quick
        test_twopl_outside_blocks_free;
      Alcotest.test_case "2pl strict unprotected" `Quick
        test_twopl_strict_unprotected_access;
      Alcotest.test_case "2pl strict volatile" `Quick
        test_twopl_strict_volatile_exempt;
      Alcotest.test_case "2pl false alarm" `Quick
        test_twopl_false_alarm_on_serializable;
      QCheck_alcotest.to_alcotest prop_vclock_join_commutes;
      QCheck_alcotest.to_alcotest prop_vclock_join_assoc;
      QCheck_alcotest.to_alcotest prop_vclock_join_idempotent;
      QCheck_alcotest.to_alcotest prop_vclock_incr_monotone;
      QCheck_alcotest.to_alcotest prop_vclock_compare_agrees_with_order;
      Alcotest.test_case "aero cycle" `Quick test_aero_detects_cycle;
      Alcotest.test_case "aero serializable" `Quick test_aero_serializable_clean;
      Alcotest.test_case "aero lock cycle" `Quick test_aero_lock_cycle;
      Alcotest.test_case "aero late predecessor" `Quick
        test_aero_late_predecessor;
      Alcotest.test_case "aero unary" `Quick test_aero_unary_transactions;
      Alcotest.test_case "aero = basic counts" `Quick
        test_aero_matches_basic_counts;
    ] )
