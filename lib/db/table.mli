(** A table: schema + heap + secondary B-tree indexes, kept consistent on
    every mutation. *)

type t = {
  schema : Schema.t;
  heap : Heap.t;
  mutable indexes : (string * Btree.t) list;  (** column name -> index *)
  mutable snap : t option;  (** cached {!freeze} result, dropped on mutation *)
  mutable on_mutate : unit -> unit;
      (** invalidation hook run on every mutation; {!Catalog} installs one
          so table writes also drop the catalog-level snapshot *)
}

exception No_such_column of string

val create : Schema.t -> t
val name : t -> string

(** O(1) snapshot: schema shared, heap and every index frozen
    copy-on-write (see {!Heap.freeze} / {!Btree.freeze}). The result is
    immutable-by-convention — mutating it is safe but pointless — and is
    cached until the next mutation, so repeated freezes of an unchanged
    table return the same value. Copies no row data. *)
val freeze : t -> t

(** Type-checks the tuple, appends it and updates every index.
    @raise Schema.Schema_error *)
val insert : t -> Value.t array -> int

(** Removes the row and its index entries; [false] when absent. *)
val delete : t -> int -> bool

(** Replaces the row in place, maintaining indexes; [false] when absent. *)
val update : t -> int -> Value.t array -> bool

val get : t -> int -> Value.t array option
val count : t -> int

(** Exclusive upper bound of ever-issued row ids (see
    {!Heap.high_water}); the range partitioned scans chunk over. *)
val high_water : t -> int

val iter : t -> (int -> Value.t array -> unit) -> unit

(** Visits live rows with [lo <= rowid < hi], in row-id order. *)
val iter_range : t -> lo:int -> hi:int -> (int -> Value.t array -> unit) -> unit
val fold : t -> ('a -> int -> Value.t array -> 'a) -> 'a -> 'a
val has_index : t -> string -> bool

(** Builds (and backfills) a B-tree on the column; idempotent.
    @raise No_such_column *)
val create_index : t -> string -> unit

val index : t -> string -> Btree.t option

(** Row ids with [col = key], via the index ([None] when unindexed). *)
val index_lookup : t -> string -> Value.t -> int list option

(** Row ids, unordered, with [lo <= col <= hi] (either side optional),
    via one bounded {!Btree.range} walk ([None] when unindexed). *)
val index_range : t -> string -> ?lo:Value.t -> ?hi:Value.t -> unit -> int array option

(** Row ids, unordered, with [col] a chronon in any of the ranges of a
    coalesced {!Interval_set.segments} array, via a single
    {!Btree.range_merge} sweep. [None] when the column is unindexed. *)
val index_merge : t -> string -> int array -> int array option
