open Velodrome_trace
open Velodrome_analysis
open Velodrome_workloads
open Velodrome_sim

(* Wall-clock seconds on the shared monotonic clock (Mclock): Sys.time
   would count CPU time summed over every running domain, which inflates
   timings as soon as a serve pool (or the GC's own domains) is active,
   and Unix.gettimeofday can step backwards under NTP. *)
let now () = Velodrome_util.Mclock.now_s ()

let time f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

let time_stable ?(min_total = 0.05) n f =
  let t0 = now () in
  let count = ref 0 in
  while !count < n || now () -. t0 < min_total do
    f ();
    incr count
  done;
  (now () -. t0) /. float_of_int !count

let ground_truth (w : Workload.t) =
  let tbl = Hashtbl.create 32 in
  List.iter (fun g -> Hashtbl.replace tbl g.Workload.label g) w.Workload.methods;
  tbl


let label_of_warning names (w : Warning.t) =
  Option.map (Names.label_name names) w.Warning.label

(* The paper suspends offending threads for 100 ms — thousands of events
   on its testbed. An adaptive pause — released early by any conflicting
   write, capped at 2000 scheduling decisions — plays the same role here:
   long enough for a staggered thread to progress into the window. *)
let run_once ?(seed = 42) ?(round_robin = false) ?(quantum = 1)
    ?(adversarial = false) ?(pause_slots = 2000) ?(record_trace = false)
    program mk_backends =
  let config =
    {
      Run.default_config with
      policy = (if round_robin then Run.Round_robin else Run.Random seed);
      quantum;
      adversarial;
      pause_slots;
      record_trace;
    }
  in
  Run.run ~config program (mk_backends program.Ast.names)
