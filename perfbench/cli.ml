(* Running the [velodrome] executable as a user does, one child at a
   time, and checking what it prints against the reference verdicts. *)

module Json = Velodrome_util.Json

external wait4 : int -> int * int = "perfbench_wait4"

type child = {
  code : int;  (** exit status; -N when killed by signal N *)
  wall_s : float;  (** from spawn to reaped *)
  maxrss_kb : int;  (** the child's own peak resident set *)
  out : string;
  err : string;
}

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Runs one child to completion: (code, wall seconds, peak RSS in KB). *)
let run_child exe args out_path err_path =
  let open_out p = Unix.openfile p [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let fd_in = Unix.openfile "/dev/null" [ O_RDONLY; O_CLOEXEC ] 0 in
  let fd_out = open_out out_path and fd_err = open_out err_path in
  let t0 = Velodrome_util.Mclock.now_ns () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) fd_in fd_out fd_err in
  let code, maxrss_kb = wait4 pid in
  let t1 = Velodrome_util.Mclock.now_ns () in
  List.iter Unix.close [ fd_in; fd_out; fd_err ];
  (code, Velodrome_util.Mclock.span_s t0 t1, maxrss_kb)

(* Linux charges a child the peak RSS of the address space it was
   spawned from, so children are spawned from a launcher forked while
   this process is still small, not from the benchmark after it has
   generated a large corpus. Requests and replies travel over pipes;
   [start_launcher] must run before [spawn]. *)
type launcher = { requests : out_channel; replies : in_channel }

let launcher = ref None

let start_launcher () =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let rep_r, rep_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close req_w;
    Unix.close rep_r;
    let ic = Unix.in_channel_of_descr req_r and oc = Unix.out_channel_of_descr rep_w in
    (try
       while true do
         let (exe, args, out_path, err_path) : string * string list * string * string =
           Marshal.from_channel ic
         in
         Marshal.to_channel oc (run_child exe args out_path err_path) [];
         flush oc
       done
     with End_of_file -> ());
    Unix._exit 0
  | pid ->
    Unix.close req_r;
    Unix.close rep_w;
    let requests = Unix.out_channel_of_descr req_w in
    launcher := Some { requests; replies = Unix.in_channel_of_descr rep_r };
    at_exit (fun () ->
        close_out_noerr requests;
        ignore (Unix.waitpid [] pid))

let spawn ~scratch exe args =
  let out_path = Filename.concat scratch "child.out"
  and err_path = Filename.concat scratch "child.err" in
  let l = Option.get !launcher in
  Marshal.to_channel l.requests (exe, args, out_path, err_path) [];
  flush l.requests;
  let code, wall_s, maxrss_kb = (Marshal.from_channel l.replies : int * float * int) in
  { code; wall_s; maxrss_kb; out = read_file out_path; err = read_file err_path }

(* --- what the CLI reported ---------------------------------------------------- *)

type report = { file : string; events : int; first : int option; partial : bool }

(* [--format json] prints one multi-line object per stream; each starts
   with a line "{" and ends with a line "}". *)
let split_documents out =
  let docs = ref [] and cur = Buffer.create 256 in
  List.iter
    (fun line ->
      Buffer.add_string cur line;
      Buffer.add_char cur '\n';
      if line = "}" then begin
        docs := Buffer.contents cur :: !docs;
        Buffer.clear cur
      end)
    (String.split_on_char '\n' out);
  List.rev !docs

let report_of_doc doc =
  let field k = function Json.Obj kv -> List.assoc_opt k kv | _ -> None in
  match Json.of_string doc with
  | Error e -> Error ("unparsable JSON: " ^ e)
  | Ok j -> (
    match (field "file" j, field "events" j, field "warnings" j) with
    | Some (Json.String file), Some (Json.Int events), Some (Json.List ws) ->
      let first =
        List.fold_left
          (fun acc w ->
            match (field "index" w, acc) with
            | Some (Json.Int i), None -> Some i
            | Some (Json.Int i), Some a -> Some (min a i)
            | _ -> acc)
          None ws
      in
      Ok { file; events; first; partial = field "partial" j <> None }
    | _ -> Error "JSON object without file/events/warnings")

let reports out =
  List.fold_right
    (fun doc acc ->
      match (report_of_doc doc, acc) with
      | Ok r, Ok rs -> Ok (r :: rs)
      | (Error _ as e), _ -> e
      | _, (Error _ as e) -> e)
    (split_documents out) (Ok [])

(* A stream's result against its reference; [None] when they agree. *)
let mismatch (s : Corpus.stream) (r : report) =
  let exp = s.Corpus.reference in
  let show = function None -> "none" | Some i -> string_of_int i in
  if r.partial then Some "partial result"
  else if r.events <> exp.Corpus.events then
    Some (Printf.sprintf "events %d, expected %d" r.events exp.Corpus.events)
  else if (r.first <> None) <> exp.Corpus.violation then
    Some
      (Printf.sprintf "verdict %s, expected %s"
         (if r.first = None then "clean" else "violation")
         (if exp.Corpus.violation then "violation" else "clean"))
  else if r.first <> exp.Corpus.first then
    Some
      (Printf.sprintf "first warning index %s, expected %s" (show r.first)
         (show exp.Corpus.first))
  else None

let expected_code violation = if violation then 1 else 0

(* [--stats] prints "[serve] i/N path: E events, W warnings, wait X ms,
   check Y ms" per stream; returns (path, wait, check) in ms. *)
let serve_turnarounds err =
  List.filter_map
    (fun line ->
      try
        Scanf.sscanf line "[serve] %d/%d %[^:]: %d events, %d warnings, wait %fms, check %fms"
          (fun _ _ path _ _ wait check -> Some (path, wait, check))
      with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)
    (String.split_on_char '\n' err)
