(* The model-checked serve pool scenarios.

   [Serve.Make] is instantiated with the traced shim from lib/modelcheck,
   so every lock, condition operation and cell access of the
   *production* monitor becomes a scheduling point of the DPOR explorer.
   The scenarios run the real protocol — main admits and emits, two
   workers take and post — over stub streams whose "check" is a pure
   function (one of them raises), at the small bounds DESIGN
   "Model-checked concurrency" documents. The two mutants break the
   primitives, not the monitor: a [Condition.broadcast] that does
   nothing, and a [Mutex] whose lock and unlock do nothing. Each must
   give a counterexample — the test that proves the explorer finds
   concurrency bugs in this code shape.

   Shared by the alcotest suite (test_modelcheck.ml) and the CI runner
   (mc_run.ml). *)

module Explore = Velodrome_modelcheck.Explore
module Shim = Velodrome_modelcheck.Shim
module Serve = Velodrome_serve.Serve

let require = Explore.require
let ints xs = String.concat ";" (List.map string_of_int xs)
let capacity = 1

(* A stub stream's result is its index, or the index negated for the
   raising stream's recovered result. *)
exception Stream_raised

(* The scenarios, generic in the primitives so the same ones run
   against the healthy shim and against each mutant. [raising] is the
   stream whose check raises; [stop_after] makes main's [emit] raise
   after that many results, as an [on_result] exception does. *)
module Scenarios (P : Serve.PRIMS) = struct
  module M = Serve.Make (P)

  let pool ?(jobs = 2) ?stop_after ~name ~streams ~raising () =
    {
      Explore.name;
      init =
        (fun () ->
          let t = M.create ~streams ~capacity ~jobs in
          (* Plain OCaml state: observations, not scheduling points. *)
          let checks = Array.make streams 0 in
          let emitted = ref [] in
          let admitted = ref 0 and started = ref 0 in
          let check i =
            incr started;
            checks.(i) <- checks.(i) + 1;
            require (checks.(i) = 1) (Printf.sprintf "stream %d checked twice" i);
            if i = raising then raise Stream_raised;
            i
          in
          (* The monitor catches what [check] raises; a failed [require]
             must still reach the explorer. *)
          let recover i = function
            | Stream_raised -> -i
            | e -> raise e
          in
          let admit i =
            require (i = !admitted) "admitted out of order";
            incr admitted;
            require
              (!admitted - List.length !emitted <= capacity + jobs)
              (Printf.sprintf "stream %d admitted past the resident bound" i);
            require
              (!admitted - !started <= capacity)
              (Printf.sprintf "stream %d admitted past the queue capacity" i)
          in
          let emit i r =
            emitted := (i, r) :: !emitted;
            match stop_after with
            | Some k when List.length !emitted = k -> raise Exit
            | _ -> ()
          in
          let main () =
            (match M.merge t ~admit ~emit with
            | max_resident ->
              require
                (max_resident <= capacity + jobs)
                "max_resident past the bound"
            | exception Exit -> ());
            M.shut t
          in
          let worker () = M.worker t ~check ~recover in
          let final () =
            let got = List.rev !emitted in
            let expect =
              List.init
                (Option.value stop_after ~default:streams)
                (fun i -> (i, if i = raising then -i else i))
            in
            require (got = expect)
              (Printf.sprintf "emitted [%s], results [%s]"
                 (ints (List.map fst got))
                 (ints (List.map snd got)));
            Array.iteri
              (fun i c ->
                require
                  (c <= 1 && (c = 1 || stop_after <> None))
                  (Printf.sprintf "stream %d checked %d times" i c))
              checks
          in
          (main :: List.init jobs (fun _ -> worker), final));
    }

  (* In-order emission, every stream checked exactly once, the resident
     and queue bounds, no deadlock; the raising stream's result is its
     recovered one. *)
  let two = pool ~name:"pool-2-streams" ~streams:2 ~raising:1 ()
  let three = pool ~name:"pool-3-streams" ~streams:3 ~raising:1 ()

  (* One worker, so four streams overrun the resident window
     ([capacity + jobs] = 2) unless admission waits for emission. *)
  let one_worker =
    pool ~jobs:1 ~name:"pool-1-worker" ~streams:4 ~raising:1 ()

  (* Main's [emit] raises after the first result: shutting the pool
     must still let both workers return. *)
  let shut_early =
    pool ~name:"pool-shut-early" ~streams:3 ~raising:1 ~stop_after:1 ()

  let all = [ two; three; one_worker; shut_early ]
end

module Shim_prims = struct
  module Mutex = Shim.Mutex
  module Condition = Shim.Condition
  module Plain = Shim.Plain
end

module Healthy = Scenarios (Shim_prims)

(* Mutant 1: [broadcast] wakes nobody, so the first wait is forever —
   a deadlock. *)
module Mute = Scenarios (struct
  module Mutex = Shim.Mutex
  module Plain = Shim.Plain

  module Condition = struct
    include Shim.Condition

    let broadcast _ = ()
  end
end)

(* Mutant 2: [lock] and [unlock] do nothing, so a predicate read and
   the wait after it are no longer atomic (a lost wakeup), and two
   workers can read the same take counter (a stream checked twice).
   Shim's [wait] releases and retakes its mutex, so it is bracketed by
   the real operations to still park until the next broadcast. *)
module Unlocked = Scenarios (struct
  module Plain = Shim.Plain

  module Mutex = struct
    include Shim.Mutex

    let lock _ = ()
    let unlock _ = ()
  end

  module Condition = struct
    include Shim.Condition

    let wait c m =
      Shim.Mutex.lock m;
      Shim.Condition.wait c m;
      Shim.Mutex.unlock m
  end
end)

let healthy = List.map (fun s -> (s.Explore.name, s)) Healthy.all

let mutants =
  [
    ("mutant-broadcast-no-op", Mute.three);
    ("mutant-mutex-no-op", Unlocked.three);
  ]

(* A schedule of [Unlocked.three] that checks stream 0 twice: main runs
   until it waits (7 steps), the first worker reads the take counter,
   then the second worker takes the same stream; the default schedule
   does the rest. *)
let checked_twice = [ 0; 0; 0; 0; 0; 0; 0; 1; 1; 2 ]
