(** Ordered collections of intervals — the paper's order-1 calendars.

    The collection is kept sorted by {!Interval.compare} and free of exact
    duplicates, but member intervals may overlap (e.g. weeks overlapping
    month boundaries).

    The representation is a sorted array plus a prefix maximum of high
    endpoints: [cardinal], [nth], [nth_from_end], [first], [last] and
    [span] are O(1); [mem], [contains_chronon] and the windowing
    operations are O(log n) binary searches; the set algebra is a single
    O(n+m) merge pass. The coalesced pointwise form is computed at most
    once per set and cached, so repeated pointwise operations do not
    re-coalesce. The old linked-list implementation survives as
    {!Interval_set_list}, the property-test oracle.

    Two algebras coexist, as required by the paper:
    {ul
    {- {e element-wise} ([union], [diff], [inter]) treat the collection as a
       set of intervals compared by equality. These back the script-level
       [+] and [-] operators (EMP-DAYS example, section 3.3).}
    {- {e pointwise} ([pointwise_union], ...) treat the collection as a set
       of chronons and return coalesced disjoint intervals.}} *)

type t

val empty : t
val is_empty : t -> bool

(** [of_list l] sorts and deduplicates. *)
val of_list : Interval.t list -> t

(** [of_pairs l] builds from raw endpoint pairs. *)
val of_pairs : (int * int) list -> t

val to_list : t -> Interval.t list

(** [to_array t] is a fresh array of the members in ascending
    {!Interval.compare} order. *)
val to_array : t -> Interval.t array

(** [to_seq t] enumerates the members lazily, in ascending order. *)
val to_seq : t -> Interval.t Seq.t

val to_pairs : t -> (int * int) list
val cardinal : t -> int
val singleton : Interval.t -> t
val add : Interval.t -> t -> t

(** [mem i t] is interval-equality membership. *)
val mem : Interval.t -> t -> bool

val contains_chronon : t -> Chronon.t -> bool

(** [nth t i] is the [i]-th interval, 1-based. @raise Not_found if out of
    range. [nth_from_end t 1] is the last interval. *)
val nth : t -> int -> Interval.t

val nth_from_end : t -> int -> Interval.t
val first : t -> Interval.t option
val last : t -> Interval.t option

(** [first_start_geq t c] is the first member whose low endpoint is at or
    after [c] — the "first interval ≥ t" probe the streaming generation
    path bottoms out in. O(log n). *)
val first_start_geq : t -> Chronon.t -> Interval.t option

(** Smallest interval covering the whole collection. *)
val span : t -> Interval.t option

val filter : (Interval.t -> bool) -> t -> t
val map : (Interval.t -> Interval.t) -> t -> t
val iter : (Interval.t -> unit) -> t -> unit
val fold : ('a -> Interval.t -> 'a) -> 'a -> t -> 'a

(** {2 Element-wise algebra} *)

val union : t -> t -> t
val diff : t -> t -> t
val inter : t -> t -> t
val equal : t -> t -> bool

(** {2 Pointwise (chronon-set) algebra} — results are coalesced. *)

(** [coalesce t] merges overlapping or adjacent intervals. O(1) once the
    coalesced form is known and [t] already is it. *)
val coalesce : t -> t

(** [segments t] is the coalesced form as a flat array
    [[|lo0; hi0; lo1; hi1; ...|]] of disjoint, sorted, non-adjacent
    chronon ranges — two words a range. Computed at most once per set;
    the array is shared, so callers must not mutate it. *)
val segments : t -> int array

(** [of_segments s] is the set whose members are the ranges of [s], which
    must be a valid {!segments} array; [s] is shared, not copied, and
    becomes the result's coalesced form. *)
val of_segments : int array -> t

(** [segments_contain s c] — does some range of the {!segments} array [s]
    contain [c]? O(log n), no allocation. *)
val segments_contain : int array -> Chronon.t -> bool

val pointwise_union : t -> t -> t
val pointwise_inter : t -> t -> t
val pointwise_diff : t -> t -> t

(** {2 Windowing} *)

(** [clip t w] keeps the parts of each member inside window [w]
    (members overlapping [w] are cut to [w]). *)
val clip : t -> Interval.t -> t

(** [restrict t w] keeps members that overlap [w], whole. *)
val restrict : t -> Interval.t -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
