(** The static atomicity pre-pass: CFG → must-locksets → races → movers →
    Lipton reduction → transactional conflict graph, packaged behind one
    [analyze] call.

    Two independent proof rules feed a three-way verdict per block:

    - {b Lipton}: every path spells [R* N? L*] over sound mover classes
      ({!Reduce}), so each dynamic transaction reduces to a serial one.
    - {b Cycle_free}: no cycle of the static transactional conflict
      graph ({!Txgraph}) can close into any occurrence of the block.
      Since the graph over-approximates every dynamic happens-before
      edge and Velodrome blames a block only when a cycle closes at an
      op inside it (Theorem 1), such a block is serializable on every
      execution — this proves read-shared and one-way publish patterns
      Lipton rejects.

    A block proved by neither rule is [May_violate] with a concrete
    static cycle witness, the ranked triage for the dynamic checker;
    [Unknown] survives only for the graph's budget valve. *)

open Velodrome_trace.Ids

type proof = Lipton | Cycle_free

type verdict =
  | Proved_atomic of proof
  | May_violate of Txgraph.witness
  | Unknown of Reduce.reason list
      (** graph search exhausted its budget; Lipton reasons retained *)

type block = {
  label : Label.t;
  name : string;
  sites : Cfg.site list;  (** every occurrence, in site order *)
  verdict : verdict;  (** joined over all occurrences *)
  lipton_reasons : Reduce.reason list;
      (** why Lipton reduction failed; empty iff proved by Lipton *)
}

type t

val analyze : ?values:bool -> Velodrome_sim.Ast.program -> t
(** [values] (default [true]) runs the
    tid-specialized {!Values} abstract interpretation first and threads
    its dead-site set through every downstream pass — locksets stop
    merging over infeasible arms, may-happen-in-parallel and race
    detection skip dead accesses, movers reclassify sites whose racy
    partner died, and the conflict graph drops edges incident to dead
    sites. Pass [false] for the unsharpened legacy pipeline. *)

val blocks : t -> block list

val values : t -> Values.t option
(** The value-analysis results, [None] when [analyze ~values:false]. *)

val dead_site_count : t -> int
(** 0 when value analysis is off. *)

val dead_branch_count : t -> int
(** 0 when value analysis is off. *)

val cfg : t -> Cfg.t
val locksets : t -> Lockset.t
val mhp : t -> Mhp.t
val races : t -> Races.t
val race_pairs : t -> Races.pair list
val race_pair_count : t -> int
val names : t -> Velodrome_trace.Names.t
val movers : t -> Movers.t
val txgraph : t -> Txgraph.t

val proved : t -> Label.t -> bool
(** Proved by either rule. *)

val proved_count : t -> int
val proved_lipton_count : t -> int
val proved_cycle_free_count : t -> int
val may_violate_count : t -> int
val unknown_count : t -> int
val block_count : t -> int

val verdict_string : verdict -> string
(** ["proved-atomic"], ["may-violate"] or ["unknown"]. *)

val pp_human :
  ?pos:(Label.t -> (int * int) option) -> Format.formatter -> t -> unit

val to_json :
  ?pos:(Label.t -> (int * int) option) ->
  ?file:string ->
  t ->
  Velodrome_util.Json.t
(** Stable JSON verdict document; [pos] supplies source positions for
    labels parsed from a [.vel] file. *)

val pp_graph_human : Format.formatter -> t -> unit
(** Human conflict-graph report: size, edge-sort breakdown, and one
    witness cycle per [May_violate] block. *)

val graph_json : t -> Velodrome_util.Json.t
(** The [--graph] section: stats plus per-block witnesses. *)

val graph_dots : t -> (string * string) list
(** [(slug, dot)] pairs to export: the full op graph as ["txgraph"] plus
    one witness cycle per [May_violate] block, slugged by block name.
    With value analysis on, also ["cfg_values"] — the whole-program CFG
    with per-node interval annotations and dead nodes grayed out. *)

val pp_values_human : Format.formatter -> t -> unit
(** Human value-analysis report: one line per fact
    ([<site>: <target> <interval>]), dead-branch list, summary counts. *)

val values_json : t -> Velodrome_util.Json.t
(** The [--values] section: facts, dead branches and summary counts;
    [Null] when value analysis is off. *)

val pp_races_human :
  ?pos:(Label.t -> (int * int) option) -> Format.formatter -> t -> unit
(** Human race-pair report: one entry per pair with both endpoints, their
    held locks, and the atomic blocks each pair endangers. *)

val races_to_json :
  ?pos:(Label.t -> (int * int) option) -> t -> Velodrome_util.Json.t
(** Stable race-pair document ([pairs] array + [summary]); source
    positions anchor to each access's innermost enclosing atomic block
    when available. *)
