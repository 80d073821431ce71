(** String interning.

    Variables, locks and atomic-block labels appear millions of times in an
    event stream; the analyses index per-variable state with arrays and hash
    tables keyed by small dense integers. A symbol table maps each distinct
    name to such an integer once, at program-construction time. The
    lookup is an open-addressing hash index over the names themselves,
    so a hit allocates nothing. *)

type t
(** A mutable intern table. Tables are independent: the same string interned
    in two tables may receive different ids. *)

val create : unit -> t

val intern : t -> string -> int
(** [intern tbl s] returns the id for [s], allocating the next dense id on
    first sight. Ids start at 0. *)

val intern_sub : t -> Bytes.t -> int -> int -> int
(** [intern_sub tbl b off len] is [intern tbl (Bytes.sub_string b off len)]
    without building the string unless the name is new: the lookup
    compares the bytes in place. *)

val find : t -> string -> int option
(** Lookup without allocating. *)

val name : t -> int -> string
(** [name tbl id] is the string interned as [id]. Raises [Invalid_argument]
    for ids never returned by [intern]. *)

val size : t -> int
(** Number of distinct symbols interned so far. *)

val iter : t -> (int -> string -> unit) -> unit
(** Iterate over (id, name) pairs in id order. *)
