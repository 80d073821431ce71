open Velodrome_trace

type t = {
  names : Names.t;
  iter : (Event.t -> unit) -> unit;
}

let of_trace names trace =
  {
    names;
    iter =
      (fun f -> Trace.iteri (fun index op -> f (Event.make ~index op)) trace);
  }

(* Sniffs the magic on the channel already open, then rewinds. *)
let starts_with_magic ic =
  let magic = Trace_codec.magic in
  let binary =
    match really_input_string ic (String.length magic) with
    | m -> m = magic
    | exception End_of_file -> false
  in
  seek_in ic 0;
  binary

let with_file path k =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      if starts_with_magic ic then begin
        let r = Trace_codec.reader_of_channel ic in
        k
          {
            names = Trace_codec.reader_names r;
            iter = (fun f -> Trace_codec.iter_events r f);
          }
      end
      else begin
        let names = Names.create () in
        let iter f =
          let index = ref 0 in
          Trace_io.fold_channel names ic ~init:() ~f:(fun () op ->
              f (Event.make ~index:!index op);
              incr index)
        in
        k { names; iter }
      end)
