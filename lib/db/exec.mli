(** Query execution as a compile-then-execute pipeline: plans are
    prepared through {!Qplan} (parameterized-AST plan cache, compiled
    predicates, equality and fused-range probes ranked by estimate,
    merged on-calendar sweeps); the original tree-walking interpreter survives
    as [`Interpreted], the differential oracle.

    The residual [where] predicate is always re-applied after an index
    probe, so inclusive-range probes (and probes skipped as not
    selective enough) over-approximate safely. *)

type stats = {
  mutable scanned : int;  (** tuples touched *)
  mutable seq_scans : int;
  mutable index_scans : int;
  mutable index_probes : int;  (** individual B-tree probes / merged sweeps *)
  mutable plan_cache_hits : int;
  mutable plan_cache_misses : int;
}

val fresh_stats : unit -> stats

type result =
  | Rows of { columns : string list; rows : Value.t array list }
  | Affected of int
  | Msg of string
  | Rule_def of Qast.rule  (** consumed by the rule manager upstream *)
  | Rule_drop of string

exception Exec_error of string

type mode = [ `Compiled | `Interpreted ]

(** Minimum table high-water mark (in row slots) for a compiled
    sequential scan to be partitioned across domains; below it the scan
    stays serial. Tests lower it to exercise the parallel path on small
    tables. *)
val parallel_scan_threshold : int ref

(** [run catalog ?binding ?stats ?mode ?force_seq ?domains q] executes
    one command. [binding] resolves free columns (used for NEW/CURRENT
    in rule actions). [mode] defaults to [`Compiled]; [`Interpreted] is
    the pre-compilation tree walker kept as a differential oracle.
    [force_seq] disables index/calendar candidate generation so scans and
    probes can be differenced. [domains] caps the lanes a compiled
    sequential scan may fan out over (default
    {!Cal_parallel.Pool.default_domains}; the interpreted engine and
    impure or index-driven scans always run serially). Row order, result
    rows and counters are identical at every domain count. Retrieval
    fires [On_retrieve] per returned tuple; mutations fire their events
    after the change.

    [injector] is the fault-injection hook (default disabled): an armed
    executor fault fails a mutating command with [Exec_error] {e before}
    it touches the heap, so injected faults never leave partial updates.
    @raise Exec_error and the catalog/schema exceptions. *)
val run :
  Catalog.t ->
  ?binding:(string -> Value.t option) ->
  ?stats:stats ->
  ?mode:mode ->
  ?force_seq:bool ->
  ?domains:int ->
  ?injector:Cal_faults.Injector.t ->
  Qast.query ->
  result

(** A statement prepared once for repeated execution: one trip through
    the plan cache, replayed by {!run_prepared} without another probe.
    Used by the rule manager to coalesce a DBCRON tick's same-shape
    actions into one preparation. *)
type prepared

(** [prepare catalog ?stats q] readies a DML statement for repeated
    execution, counting the plan-cache hit or miss into [stats]. [None]
    for statements with no cacheable plan (DDL, rule commands).
    @raise Exec_error and the catalog/schema exceptions (as planning
    from {!run} would). *)
val prepare : Catalog.t -> ?stats:stats -> Qast.query -> prepared option

(** Execute a prepared statement. Identical observable behaviour to
    {!run} on the original statement — including the pre-execution
    injector gate on mutations — except that no plan-cache hit/miss is
    counted. If DDL has bumped the catalog version since preparation,
    falls back to a full {!run} (which replans). *)
val run_prepared :
  Catalog.t ->
  ?binding:(string -> Value.t option) ->
  ?stats:stats ->
  ?force_seq:bool ->
  ?domains:int ->
  ?injector:Cal_faults.Injector.t ->
  prepared ->
  result

(** Parse and run, with errors as [Error _]. *)
val run_string :
  Catalog.t ->
  ?binding:(string -> Value.t option) ->
  ?stats:stats ->
  ?mode:mode ->
  ?force_seq:bool ->
  ?domains:int ->
  ?injector:Cal_faults.Injector.t ->
  string ->
  (result, string) Stdlib.result

(** Whether [q] is a retrieve whose evaluation cannot touch shared
    mutable state: no [on <calendar>] clause and no operator calls other
    than the built-in aggregates. Pure reads run against a snapshot with
    no locking at all; impure ones must serialize with the writer's
    calendar machinery. *)
val read_is_pure : Qast.query -> bool

(** Parse and run a retrieve-only statement — the snapshot read path.
    Any non-retrieve statement is rejected with [Error _] before
    touching the catalog. Meant to run against a {!Catalog.freeze}
    snapshot (where retrieval fires no events); [domains] defaults to 1
    because concurrent readers get their parallelism from fanning
    queries across lanes, not from partitioning one scan. *)
val run_read : Catalog.t -> ?stats:stats -> ?domains:int -> string -> (result, string) Stdlib.result

(** [sort_rowids a] — the ascending, duplicate-free candidate array the
    access paths intersect and scan. Sorts [a] in place and may return
    [a] itself; rowids must be non-negative. *)
val sort_rowids : int array -> int array
