(** The report of [velodrome analyze]: per program, the static verdicts
    and, on request, value facts, race pairs, the conflict graph, the
    soundness gate ({!Gate}) and witness-guided prediction
    ({!Velodrome_predict.Predict}), rendered for humans or as JSON. The
    CLI only parses flags, builds the programs and prints. *)

type target = {
  name : string;  (** the header and the JSON [file] field *)
  program : Velodrome_sim.Ast.program;
  pos : Velodrome_trace.Ids.Label.t -> (int * int) option;
      (** source position of an atomic label ([.vel] files only) *)
  generated : (int * string list) option;  (** progen seed and families *)
}

val progen : int -> target
(** The generated program of a progen seed. *)

type options = {
  values : bool;  (** run the value analysis ([--no-values] clears it) *)
  show_values : bool;
  races : bool;
  graph : bool;
  gate : int list option;  (** [--gate], with its scheduler seeds *)
  predict : bool;
}

type t

val run : options -> target list -> t

val replay_lines : t -> string list
(** {!Gate.replay_lines} of every generated target whose gate failed. *)

val exit_code : t -> int
(** 1 when a soundness or prediction gate failed or, without [--gate],
    when some block is not proved atomic; else 0. *)

val pp_human : single:bool -> Format.formatter -> t -> unit
(** Per target: verdicts, values, races, graph, predictions (with the
    prediction gate's line), soundness gate. Unless [single], each
    target opens with a [== name ==] header. *)

val to_json : single:bool -> t -> Velodrome_util.Json.t
(** One {!Velodrome_statics.Statics.to_json} document per target, plus
    the requested [gate], [values], [races], [graph] and [predict]
    fields; [single] gives the one document rather than an array. *)

val write_dots : string -> t -> string list
(** Write every target's static graphs into the directory as
    [<slug>.<kind>.dot]; returns the paths. *)

type replay = Certified of int | Not_certified of string

val replay :
  target -> block:string -> schedule:string -> (replay, string) result
(** [analyze --block B --schedule PLAN]: replay a prediction's waypoint
    schedule and certify it against the block with the engine trio.
    [Error] names an unknown block or an unparsable schedule. *)

val pp_replay : block:string -> Format.formatter -> replay -> unit
