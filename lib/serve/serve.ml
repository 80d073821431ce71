module Squeue = Velodrome_util.Squeue

(* Raw monotonic nanoseconds (shared Mclock funnel); serve measures
   queue wait and wall time, both of which must survive NTP steps and
   multi-domain CPU-time accounting (Sys.time counts every domain's
   cycles). *)
let now_ns () = Velodrome_util.Mclock.now_ns ()

type result = {
  index : int;
  path : string;
  outcome : Velodrome_stream.Driver.outcome;
  wait_ns : int64;
  check_ns : int64;
}

type stats = {
  streams : int;
  failed : int;
  events : int;
  warnings : int;
  elapsed_ns : int64;
  queue_wait_ns : int64;
  max_resident : int;
  jobs : int;
  queue_capacity : int;
}

type job = { j_index : int; j_path : string; j_enqueued : int64 }

let default_jobs () = Domain.recommended_domain_count ()

(* --- the pool ---------------------------------------------------------------- *)

let run ?jobs ?queue_capacity ?(format = `Human) ~backends ~on_result paths =
  let n = List.length paths in
  let jobs =
    let j = match jobs with Some j -> j | None -> default_jobs () in
    max 1 (min j (max n 1))
  in
  let queue_capacity =
    match queue_capacity with Some c -> max 1 c | None -> 2 * jobs
  in
  let paths = Array.of_list paths in
  let q : job Squeue.t = Squeue.create ~capacity:queue_capacity in
  let queue_capacity = Squeue.capacity q in
  (* Submission may run at most [window] streams ahead of the ordered
     merge: the queue-bounded memory claim, counting queued jobs,
     per-worker streams in flight and buffered out-of-order results. *)
  let window = queue_capacity + jobs in
  let results : result option Atomic.t array =
    Array.init n (fun _ -> Atomic.make None)
  in
  (* Main parks here when it can neither submit nor merge; workers
     broadcast after taking a job (queue space) and after posting a
     result (merge progress). The head-of-line result is re-checked
     under the lock, so a post cannot slip between check and sleep. *)
  let lock = Mutex.create () in
  let progress = Condition.create () in
  let notify () =
    Mutex.lock lock;
    Condition.broadcast progress;
    Mutex.unlock lock
  in
  let worker () =
    let rec loop () =
      match Squeue.pop q with
      | None -> ()
      | Some job ->
        notify ();
        (* queue space freed *)
        let t0 = now_ns () in
        (* One stream, one fresh engine, one fresh name table — all
           private to this domain. Only rendered strings or Json leave. *)
        let outcome =
          Velodrome_stream.Driver.check_file ~backends ~format job.j_path
        in
        let t1 = now_ns () in
        Atomic.set
          results.(job.j_index)
          (Some
             {
               index = job.j_index;
               path = job.j_path;
               outcome;
               wait_ns = Int64.sub t0 job.j_enqueued;
               check_ns = Int64.sub t1 t0;
             });
        notify ();
        loop ()
    in
    loop ()
  in
  let t_start = now_ns () in
  let domains = Array.init jobs (fun _ -> Domain.spawn worker) in
  let next_submit = ref 0 in
  let next_emit = ref 0 in
  let max_resident = ref 0 in
  let failed = ref 0 in
  let events = ref 0 in
  let warnings = ref 0 in
  let queue_wait = ref 0L in
  Fun.protect
    ~finally:(fun () ->
      Squeue.close q;
      Array.iter Domain.join domains)
    (fun () ->
      while !next_emit < n do
        let progressed = ref false in
        (* Merge every ready head-of-line result, in submission order. *)
        let rec emit () =
          if !next_emit < n then
            match Atomic.get results.(!next_emit) with
            | Some r ->
              Atomic.set results.(!next_emit) None;
              incr next_emit;
              progressed := true;
              let e, ws =
                match r.outcome with
                | Velodrome_stream.Driver.Checked { events = e; warnings = ws } ->
                  (e, ws)
                | Failed { events = e; warnings = ws; _ } ->
                  incr failed;
                  (e, ws)
              in
              events := !events + e;
              warnings := !warnings + Velodrome_stream.Driver.warning_count ws;
              queue_wait := Int64.add !queue_wait r.wait_ns;
              on_result r;
              emit ()
            | None -> ()
        in
        emit ();
        if
          !next_submit < n
          && !next_submit - !next_emit < window
          && Squeue.try_push q
               {
                 j_index = !next_submit;
                 j_path = paths.(!next_submit);
                 j_enqueued = now_ns ();
               }
        then begin
          incr next_submit;
          progressed := true;
          let resident = !next_submit - !next_emit in
          if resident > !max_resident then max_resident := resident
        end;
        if (not !progressed) && !next_emit < n then begin
          Mutex.lock lock;
          if Atomic.get results.(!next_emit) = None then
            Condition.wait progress lock;
          Mutex.unlock lock
        end
      done;
      Squeue.close q);
  {
    streams = n;
    failed = !failed;
    events = !events;
    warnings = !warnings;
    elapsed_ns = Int64.sub (now_ns ()) t_start;
    queue_wait_ns = !queue_wait;
    max_resident = !max_resident;
    jobs;
    queue_capacity;
  }

(* --- CLI target expansion ---------------------------------------------------- *)

let trace_entry name =
  Filename.check_suffix name ".velb" || Filename.check_suffix name ".trace"

let expand_targets targets =
  let rec go acc = function
    | [] -> Ok (List.concat (List.rev acc))
    | t :: rest -> (
      match Sys.is_directory t with
      | true ->
        let entries =
          Sys.readdir t |> Array.to_list |> List.filter trace_entry
          |> List.sort compare
          |> List.map (Filename.concat t)
        in
        if entries = [] then
          Error (Printf.sprintf "%s: no .velb or .trace files in directory" t)
        else go (entries :: acc) rest
      | false -> go ([ t ] :: acc) rest
      | exception Sys_error _ ->
        Error (Printf.sprintf "%s: no such file or directory" t))
  in
  go [] targets
