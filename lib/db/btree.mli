(** In-memory B-tree multimap from {!Value.t} keys to row ids — the
    secondary-index structure.

    Classic CLRS B-tree with minimum degree 16: every node holds between
    [t-1] and [2t-1] keys (root exempt), splits happen on the way down
    during insertion, and deletion rebalances by borrowing from or merging
    with siblings. Each key carries the list of row ids indexed under
    it. *)

type t

val create : unit -> t

(** O(1) snapshot: the result is an independent handle onto the current
    tree. Subsequent mutations through either handle path-copy each
    touched node once per epoch, so neither handle ever observes the
    other's writes. Copies no keys or row ids. *)
val freeze : t -> t

(** [insert t k rowid] adds a row id under [k] (keys may hold several). *)
val insert : t -> Value.t -> int -> unit

(** [remove t k rowid] removes one indexed row id; the key disappears once
    its last row id is gone. Returns [false] when the (key, rowid) pair
    was not present. *)
val remove : t -> Value.t -> int -> bool

(** Row ids under [k] (empty when absent), most recently inserted first. *)
val find : t -> Value.t -> int list

val mem : t -> Value.t -> bool

(** [range t ?lo ?hi f] visits keys in [lo, hi] (inclusive, either side
    optional) in ascending order, in O(log n + k) for [k] keys visited:
    it descends to [lo] by binary search and stops at the first key
    above [hi]. *)
val range : t -> ?lo:Value.t -> ?hi:Value.t -> (Value.t -> int list -> unit) -> unit

(** [range_merge t segs f] visits, in one in-order sweep, every key
    [Chronon c] with [c] in any of the inclusive chronon ranges of
    [segs], a flat [[|lo0; hi0; lo1; hi1; ...|]] array sorted by lower
    bound and pairwise disjoint (a coalesced {!Interval_set.segments}).
    Subtrees outside every remaining range are skipped, so the sweep
    replaces one {!range} probe per range. *)
val range_merge : t -> int array -> (Value.t -> int list -> unit) -> unit

(** In-order traversal of every key. *)
val iter : t -> (Value.t -> int list -> unit) -> unit

(** Number of distinct keys. *)
val cardinal : t -> int

(** Smallest / largest key present ([None] when empty) — the key-space
    bounds the planner's selectivity estimates interpolate over. *)
val min_key : t -> Value.t option

val max_key : t -> Value.t option

val keys : t -> Value.t list

(** Asserts the structural invariants (key bounds, sortedness, uniform
    leaf depth). @raise Failure on violation; used by the model-based
    tests. *)
val check_invariants : t -> unit
