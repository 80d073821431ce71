(** Growable arrays.

    Traces and event buffers grow one element at a time to sizes in the
    millions; [Vec] provides amortized O(1) push with direct indexed
    access, which the [Buffer]/list idioms do not. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val get : 'a t -> int -> 'a
(** Raises [Invalid_argument] when out of bounds. *)

val set : 'a t -> int -> 'a -> unit

val unsafe_get : 'a t -> int -> 'a
(** No bounds check at all (not even the runtime's): undefined behaviour
    out of range. Only for hot loops whose index is already known to be
    below {!length}. *)

val unsafe_set : 'a t -> int -> 'a -> unit
(** See {!unsafe_get}. The index must also be below the current length,
    not merely the capacity, or {!push} will later overwrite it. *)

val last : 'a t -> 'a option

val pop : 'a t -> 'a option
(** Removes and returns the last element. *)

val clear : 'a t -> unit
(** Logical reset; capacity is retained. Elements are not overwritten, so
    values remain reachable until overwritten — do not rely on [clear] for
    resource release. *)

val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b
val exists : ('a -> bool) -> 'a t -> bool
val to_array : 'a t -> 'a array
val to_list : 'a t -> 'a list
val of_list : 'a list -> 'a t
val of_array : 'a array -> 'a t
