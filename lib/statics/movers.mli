(** Lipton mover classification of every observable operation site.

    An acquire is a {e right}-mover, a release a {e left}-mover,
    re-entrant ones (definite depth from the {!Lockset} dataflow)
    both-movers. Shared accesses follow Atomizer's race-freedom
    condition {e per site}, driven by the pairwise {!Races} relation: a
    non-volatile access is a {e both}-mover iff it appears in {b no}
    static race pair. This subsumes the thread-local / read-only /
    globally-guarded conditions (each implies pair-freedom) and also
    proves sites like the guarded reads of a variable whose only
    unsynchronized accesses are reads in some other thread, or
    single-writer variables protected by per-reader-pair distinct
    locks. The [why_both] witness names the most specific of those
    conditions and falls back to [Race_free]; a racy access carries the
    opposing site as its [Racy] witness.

    Race pairs over-approximate true races ({!Races}), so both-mover
    claims hold on every execution — what {!Reduce}'s [Proved_atomic]
    verdicts rely on. *)

open Velodrome_trace
open Velodrome_trace.Ids

type why_both =
  | Guarded of Lock.t  (** witness guard (the smallest-id common lock) *)
  | Thread_local
  | Read_only
  | Race_free
      (** in no race pair: every conflicting access shares some lock,
          though no single lock covers all sites *)
  | Reentrant

type why_non =
  | Volatile_access
  | Unguarded  (** the conservative default for a site with no class *)
  | Racy of Cfg.site  (** the opposing end of a witnessing race pair *)

type klass = Both of why_both | Right | Left | Non of why_non

type t

val analyze :
  ?dead:(Cfg.site -> bool) -> Names.t -> Cfg.t -> Lockset.t -> Races.t -> t
(** [dead] marks statically-dead sites
    from the {!Values} pass: dead accesses neither pollute the per-var
    thread/write facts nor receive a class, so a variable whose only
    cross-thread accesses are dead reclassifies as thread-local and a
    site whose racy partner died becomes a both-mover. Defaults to
    nothing dead. *)

val at_site : t -> Cfg.site -> klass option
(** [None] for sites with no observable effect (silent statements). *)

val pp_klass : Names.t -> Format.formatter -> klass -> unit
val pp_why_non : Format.formatter -> why_non -> unit
