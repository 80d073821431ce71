(** Whole-program pairwise static race detection.

    Lockset-based race reasoning is pairwise by nature: two access sites
    race only if they {e conflict} (same non-volatile variable, at least
    one write), may happen in parallel ({!Mhp}), and share no lock. For
    every such ordered pair of sites this module intersects the per-site
    {e must}-locksets from {!Lockset}; an empty intersection yields a
    {!pair} carrying both {!Cfg.site}s, their access kinds, the locks
    each definitely holds, the atomic blocks each endangers, and a
    human-readable witness explanation.

    Soundness: must-locksets under-approximate the locks actually held
    and {!Mhp} over-approximates concurrency, so the reported pairs
    over-approximate the true races — a site in {b no} pair is race-free on
    every execution. Two conflicting accesses that share a must-held lock
    are ordered by that lock's release/acquire happens-before edges, so a
    pair-free access can never be part of an Eraser or happens-before
    race, which is exactly Atomizer's condition for treating the access
    as a both-mover ({!Movers} consumes the relation that way). *)

open Velodrome_trace
open Velodrome_trace.Ids

type access = {
  node : int;
  site : Cfg.site;
  write : bool;
  locks : int list;  (** must-lockset at the site, ascending lock ids *)
  atomics : Label.t list;  (** enclosing atomic blocks, innermost first *)
}

type pair = { var : Var.t; a : access; b : access }
(** Canonically oriented: [Cfg.site_compare a.site b.site <= 0]. *)

type t

val analyze :
  ?dead:(Cfg.site -> bool) -> Names.t -> Cfg.t -> Lockset.t -> Mhp.t -> t
(** [dead] marks statically-dead sites from the {!Values} pass; accesses
    at dead sites are skipped (a values-aware {!Mhp} already excludes
    them from reachability — the explicit check keeps the pass sound
    with any [Mhp.t]). Defaults to nothing dead. *)

val pairs : t -> pair list
(** All pairs, sorted by (variable, first site, second site). *)

val pair_count : t -> int

val access_sites : t -> int
(** Reachable non-volatile shared access sites examined. *)

val witness : t -> Cfg.site -> pair option
(** A pair the site participates in, if any. *)

val racy_site : t -> Cfg.site -> bool
val racy_var : t -> Var.t -> bool
val racy_var_count : t -> int
val racy_vars : t -> Var.t list

val other_end : pair -> Cfg.site -> access
(** The endpoint of the pair that is not at the given site. *)

val explain : Names.t -> pair -> string
