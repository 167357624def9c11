(** Growable arrays.

    The standard library of OCaml 5.1 does not provide [Dynarray] yet, so the
    simulator carries its own minimal growable-array module.  Elements are
    stored contiguously; [push] is amortised O(1). *)

type 'a t

val create : unit -> 'a t
(** [create ()] is an empty vector. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** [push t x] appends [x] at the end of [t]. *)

val get : 'a t -> int -> 'a
(** [get t i] is the [i]-th element.  @raise Invalid_argument when out of
    bounds. *)

val unsafe_get : 'a t -> int -> 'a
(** [unsafe_get t i] is [get t i] without the bounds check, for hot loops
    whose index is already validated against {!length}.  Out-of-bounds
    behaviour is undefined. *)

val unsafe_data : 'a t -> 'a array
(** [unsafe_data t] is [t]'s storage itself, not a copy: its first
    [length t] slots are the elements (writes to them are writes to [t]),
    the rest are unspecified.  It stops being [t]'s storage at the next
    [push] that grows [t], or at [reset]. *)

val set : 'a t -> int -> 'a -> unit
(** [set t i x] replaces the [i]-th element.  @raise Invalid_argument when out
    of bounds. *)

val last : 'a t -> 'a
(** [last t] is the most recently pushed element.  @raise Invalid_argument on
    an empty vector. *)

val pop : 'a t -> 'a
(** [pop t] removes and returns the last element.  @raise Invalid_argument on
    an empty vector. *)

val clear : 'a t -> unit
(** [clear t] removes all elements (O(1); storage is retained). *)

val reset : 'a t -> unit
(** [reset t] removes all elements and releases the storage, so [t] no
    longer keeps them alive. *)

val truncate : 'a t -> int -> unit
(** [truncate t len] drops every element past the first [len] (O(1);
    storage is retained).  @raise Invalid_argument when [len] is negative
    or exceeds the length. *)

val iter : ('a -> unit) -> 'a t -> unit

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val exists : ('a -> bool) -> 'a t -> bool

val to_list : 'a t -> 'a list

val to_array : 'a t -> 'a array

val blit_prefix : 'a t -> int -> 'a t -> unit
(** [blit_prefix src len dst] appends the first [len] elements of [src] to
    [dst].  Used by the engine's checkpoint restore to seed a fresh
    per-run buffer with a snapshotted prefix.  @raise Invalid_argument
    when [len] exceeds [src]'s length. *)

val prefix_array : 'a t -> int -> 'a array
(** [prefix_array src len] is a fresh array of the first [len] elements.
    @raise Invalid_argument when [len] exceeds [src]'s length. *)

val of_list : 'a list -> 'a t

val wrap : 'a array -> 'a t
(** [wrap a] is a vector whose elements are [a]'s, with [a] itself as its
    storage (no copy): writes through the vector are writes to [a] until a
    [push] grows it. *)
