(** Small statistics helpers for the evaluation harness. *)

val mean : float array -> float
(** Arithmetic mean; 0.0 on an empty array. *)

val median : float array -> float
(** Median (average of middle two for even lengths); 0.0 on empty. *)

val min_max : float array -> float * float
(** Raises [Invalid_argument] on an empty array. *)

val ratio : float -> float -> float
(** [ratio num den] is [num /. den], or 0.0 when [den] is 0 — slowdown
    tables divide by a base time that can be 0 on trivial configs. *)

type counter
(** A named monotonic counter with a high-water mark, used for the paper's
    "Allocated" / "Max. Alive" node statistics. *)

val counter : unit -> counter
val incr : counter -> unit
val decr : counter -> unit
val value : counter -> int
val total_increments : counter -> int
val high_water : counter -> int
val reset : counter -> unit

val allocated_bytes : unit -> float
(** Bytes the calling domain has allocated so far, exact at any point, for
    measuring a window as a difference. [Gc.allocated_bytes] does not serve
    for that on OCaml 5.1: its minor-heap term only advances at minor
    collections, so a short window reads near zero, or a whole minor heap
    too much when a collection falls inside it. [Gc.minor_words] reads the
    allocation pointer itself; major minus promoted words adds the direct
    major allocations. *)
