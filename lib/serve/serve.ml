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

let default_jobs () = Domain.recommended_domain_count ()

(* --- the pool monitor -------------------------------------------------------- *)

module type PRIMS = sig
  module Mutex : sig
    type t

    val create : unit -> t
    val lock : t -> unit
    val unlock : t -> unit
  end

  module Condition : sig
    type t

    val create : unit -> t
    val wait : t -> Mutex.t -> unit
    val broadcast : t -> unit
  end

  module Plain : sig
    type 'a t

    val make : 'a -> 'a t
    val get : 'a t -> 'a
    val set : 'a t -> 'a -> unit
  end
end

module Make (P : PRIMS) = struct
  (* Streams are admitted, taken and emitted in index order, so three
     counters describe the whole pipeline: [taken, admitted) is the job
     queue and [emitted, admitted) the resident window. [state] and
     [results] are read and written only with [lock] held. Each side
     broadcasts only on a change the other side may be waiting for,
     which keeps the model-checked schedules few. *)
  type counters = { admitted : int; taken : int; emitted : int; shut : bool }

  type 'r t = {
    streams : int;
    capacity : int;
    window : int;
    lock : P.Mutex.t;
    work : P.Condition.t;  (** workers wait here for an admitted stream *)
    progress : P.Condition.t;
        (** main waits here for the head result or queue space *)
    state : counters P.Plain.t;
    results : 'r option P.Plain.t array;
  }

  let create ~streams ~capacity ~jobs =
    let capacity = max 1 capacity in
    {
      streams;
      capacity;
      window = capacity + jobs;
      lock = P.Mutex.create ();
      work = P.Condition.create ();
      progress = P.Condition.create ();
      state =
        P.Plain.make { admitted = 0; taken = 0; emitted = 0; shut = false };
      results = Array.init streams (fun _ -> P.Plain.make None);
    }

  let shut t =
    P.Mutex.lock t.lock;
    P.Plain.set t.state { (P.Plain.get t.state) with shut = true };
    P.Condition.broadcast t.work;
    P.Mutex.unlock t.lock

  let worker t ~check ~recover =
    P.Mutex.lock t.lock;
    let rec loop s =
      if s.shut then ()
      else if s.taken < s.admitted then begin
        let i = s.taken in
        P.Plain.set t.state { s with taken = i + 1 };
        (* A full queue may be what holds main back. *)
        if s.admitted - i = t.capacity && s.admitted < t.streams then
          P.Condition.broadcast t.progress;
        P.Mutex.unlock t.lock;
        let r = match check i with r -> r | exception e -> recover i e in
        P.Mutex.lock t.lock;
        P.Plain.set t.results.(i) (Some r);
        let s = P.Plain.get t.state in
        (* Main waits only for the head result. *)
        if i = s.emitted then P.Condition.broadcast t.progress;
        loop s
      end
      else begin
        P.Condition.wait t.work t.lock;
        loop (P.Plain.get t.state)
      end
    in
    loop (P.Plain.get t.state);
    P.Mutex.unlock t.lock

  let merge t ~admit ~emit =
    let max_resident = ref 0 in
    (* With the lock held: admit what the bounds allow, then take the
       ready head of the results. Admission comes first, so a batch
       still being emitted counts as resident. *)
    let rec next () =
      let s = P.Plain.get t.state in
      let admitted =
        min t.streams (min (s.emitted + t.window) (s.taken + t.capacity))
      in
      if admitted > s.admitted then begin
        for i = s.admitted to admitted - 1 do
          admit i
        done;
        max_resident := max !max_resident (admitted - s.emitted);
        (* Workers wait only on an empty queue. *)
        if s.taken = s.admitted then P.Condition.broadcast t.work
      end;
      let rec collect e acc =
        if e = t.streams then (e, acc)
        else
          match P.Plain.get t.results.(e) with
          | Some r ->
            P.Plain.set t.results.(e) None;
            collect (e + 1) ((e, r) :: acc)
          | None -> (e, acc)
      in
      let emitted, ready = collect s.emitted [] in
      if (admitted, emitted) <> (s.admitted, s.emitted) then
        P.Plain.set t.state { s with admitted; emitted };
      if ready = [] && emitted < t.streams then begin
        P.Condition.wait t.progress t.lock;
        next ()
      end
      else (List.rev ready, emitted = t.streams)
    in
    let rec loop () =
      P.Mutex.lock t.lock;
      let ready, finished = next () in
      P.Mutex.unlock t.lock;
      List.iter (fun (i, r) -> emit i r) ready;
      if not finished then loop ()
    in
    loop ();
    !max_resident
end

module Pool = Make (struct
  module Mutex = Mutex
  module Condition = Condition

  (* Under the monitor's lock a plain ref is race-free. *)
  module Plain = struct
    type 'a t = 'a ref

    let make = ref
    let get = ( ! )
    let set = ( := )
  end
end)

let run ?jobs ?(format = `Human) ~backends ~on_result paths =
  let n = List.length paths in
  let jobs =
    let j = match jobs with Some j -> j | None -> default_jobs () in
    max 1 (min j (max n 1))
  in
  let queue_capacity = 2 * jobs in
  let paths = Array.of_list paths in
  let pool = Pool.create ~streams:n ~capacity:queue_capacity ~jobs in
  (* Monotonic stamps as unboxed ints: [admitted_at] is written under
     the monitor's lock at admission, [started] by the one worker that
     took the stream. *)
  let admitted_at = Array.make n 0 and started = Array.make n 0 in
  let stamp () = Int64.to_int (now_ns ()) in
  let finish i outcome =
    {
      index = i;
      path = paths.(i);
      outcome;
      wait_ns = Int64.of_int (started.(i) - admitted_at.(i));
      check_ns = Int64.of_int (stamp () - started.(i));
    }
  in
  (* One stream, one fresh engine, one fresh name table — all private to
     this domain. Only rendered strings or Json leave. *)
  let check i =
    started.(i) <- stamp ();
    finish i (Velodrome_stream.Driver.check_file ~backends ~format paths.(i))
  in
  let recover i e =
    let warnings =
      match format with
      | `Human -> Velodrome_stream.Driver.Lines []
      | `Json -> Objects []
    in
    let message = Velodrome_stream.Driver.error_line paths.(i) e in
    finish i (Failed { events = 0; warnings; message })
  in
  let failed = ref 0 in
  let events = ref 0 in
  let warnings = ref 0 in
  let queue_wait = ref 0L in
  let emit _ r =
    let e, ws =
      match r.outcome with
      | Velodrome_stream.Driver.Checked { events = e; warnings = ws } -> (e, ws)
      | Failed { events = e; warnings = ws; _ } ->
        incr failed;
        (e, ws)
    in
    events := !events + e;
    warnings := !warnings + Velodrome_stream.Driver.warning_count ws;
    queue_wait := Int64.add !queue_wait r.wait_ns;
    on_result r
  in
  let t_start = now_ns () in
  let worker () = Pool.worker pool ~check ~recover in
  let domains = Array.init jobs (fun _ -> Domain.spawn worker) in
  let max_resident =
    Fun.protect
      ~finally:(fun () ->
        Pool.shut pool;
        Array.iter Domain.join domains)
      (fun () ->
        Pool.merge pool ~admit:(fun i -> admitted_at.(i) <- stamp ()) ~emit)
  in
  {
    streams = n;
    failed = !failed;
    events = !events;
    warnings = !warnings;
    elapsed_ns = Int64.sub (now_ns ()) t_start;
    queue_wait_ns = !queue_wait;
    max_resident;
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
