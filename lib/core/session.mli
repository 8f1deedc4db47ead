(** The top-level façade: one session = one extensible database with the
    calendar system installed, reproducing the paper's architecture.

    A session owns a simulated clock, a calendar evaluation context, a
    database catalog and a rule manager. Creating it registers the
    {e calendar} abstract data type with the database, creates the
    CALENDARS system table of Figure 1, installs the calendar resolver
    behind the query language's [on <calendar-expression>] clause, and
    declares the date operators — including day-count conventions with
    user-defined semantics for date arithmetic ([day_count], [year_frac],
    [accrued]) and [date('YYYY-MM-DD')]. *)

open Cal_lang
open Cal_db

(** Calendars as first-class database values (via [calendar_value('…')]). *)
type Value.ext += Calendar_v of Calendar.t

type t = {
  ctx : Context.t;
  catalog : Catalog.t;
  manager : Cal_rules.Manager.t;
  clock : Clock.t;
  injector : Cal_faults.Injector.t;
  mutable journal : Journal.t option;  (** present on durable sessions *)
  mutable batch_buf : string list option;
      (** inside {!batch}: records collected for one commit group *)
  req_ids : (string, unit) Hashtbl.t;
      (** applied client request ids (exactly-once dedup); journaled and
          snapshotted, so the set survives recovery *)
}

exception Session_error of string

(** Defaults: epoch Jan 1 1987, 40-year lifespan from the epoch year,
    DBCRON probe every simulated day, materialization cache of 512
    entries ([cache_capacity 0] disables caching).

    [probe_strategy] picks how next-fire probes search (see
    {!Cal_rules.Next_fire.strategy}): the default [`Auto] prefers the
    closed-form periodic path — translatable rules are probed by pure
    arithmetic over an unbounded horizon — then streaming, then
    materializing; [`Periodic] pins that preference explicitly, and
    [`Materialize]/[`Stream] force the lifespan-bounded paths.

    [domains] caps the worker-pool lanes this session's rule manager and
    executor may fan work across — batched next-fire recomputation and
    partitioned sequential scans (default honors [CALRULES_DOMAINS],
    else the hardware count; [1] pins the session serial). Results are
    identical at every setting.

    [shards] splits DBCRON into calendar-signature shards and [pending]
    picks each shard's pending structure — timer wheel (default) or the
    min-heap oracle (see {!Cal_rules.Manager.create}); both are
    invisible in every observable.

    [max_failures] and [retry_base] tune rule quarantine and retry
    backoff (see {!Cal_rules.Manager.create}); [injector] arms
    deterministic fault injection across the session's executor, rule
    firings and journal appends (default: disabled). *)
val create :
  ?epoch:Civil.date ->
  ?lifespan:Civil.date * Civil.date ->
  ?probe_period:int ->
  ?lookahead:int ->
  ?probe_strategy:Cal_rules.Next_fire.strategy ->
  ?cache_capacity:int ->
  ?domains:int ->
  ?shards:int ->
  ?pending:[ `Heap | `Wheel ] ->
  ?max_failures:int ->
  ?retry_base:int ->
  ?injector:Cal_faults.Injector.t ->
  unit ->
  t

(** {2 Calendars} *)

(** Define a derived calendar from a derivation script; its compiled
    evaluation plan is stored in the CALENDARS table (Figure 1). *)
val define_calendar : t -> name:string -> script:string -> (unit, string) result

(** Define a calendar by explicit values (e.g. HOLIDAYS), as endpoint
    pairs in [granularity] chronons (default Days). *)
val define_stored_calendar :
  t -> name:string -> ?granularity:Granularity.t -> (int * int) list -> unit

(** The CALENDARS tuple for one calendar, as in Figure 1. *)
val calendar_row : t -> string -> Value.t array option

(** Evaluate a calendar expression (planned). *)
val eval_calendar : t -> string -> (Calendar.t, string) result

(** Evaluate calendar-language input: expression or script. *)
val eval : t -> string -> (Interp.value, string) result

(** Evaluate a calendar expression to the day chronons it covers (what
    the [on]-clause resolver uses), coalesced. Memoized in the context's
    resolved-day memo unless the expression depends on [today].
    @raise Session_error on bad input. *)
val resolve_days : Context.t -> string -> Interval_set.t

(** {2 Queries and rules} *)

(** Run a query-language command; rule definitions dispatch to the rule
    manager. *)
val query : t -> string -> (Exec.result, string) result

(** @raise Session_error on failure. *)
val query_exn : t -> string -> Exec.result

(** Freeze the session's database into an immutable snapshot catalog
    ({!Cal_db.Catalog.freeze}): O(1) copy-on-write publication of every
    table and index, carrying a fresh epoch stamp and no event hooks.
    Snapshot readers execute retrieves against it with
    {!Cal_db.Exec.run_read} while the session keeps writing — neither
    side observes the other. Repeated freezes with no intervening write
    return the same snapshot. *)
val freeze : t -> Catalog.t

(** {2 Persistence} *)

(** Render the session (calendar definitions, user tables with indexes
    and rows, rules) as a text script loadable by {!load}. [durable]
    adds the clock, per-rule counters, firing/alert logs and rule_errors
    rows — the snapshot format, which {!load} restores bit-identically
    rather than merely schema-equivalently.
    @raise Dump.Dump_error on undumpable values. *)
val save : ?durable:bool -> t -> string

(** Load a saved script into this (fresh) session. *)
val load : t -> string -> (unit, string) result

(** {2 Durability}

    A durable session appends every completed state-changing operation —
    statements, calendar and rule definitions, time advances — to an
    on-disk write-ahead journal of checksummed records. {!snapshot}
    persists the full state and truncates the journal; {!recover}
    rebuilds a bit-identical session from snapshot plus journal,
    discarding at most the one record torn by a crash mid-append. *)

(** Open a fresh durable session journaling to [path]; stale files at
    that path are superseded. Accepts {!create}'s parameters, plus
    [segments] (default 1): the journal stripe count — a segmented
    journal's files decode in parallel during recovery (see
    {!Cal_db.Journal}) — and [policy]: the group-commit durability
    policy (default {!Cal_db.Journal.policy_of_env}, normally
    [Sync_each]). Under [Group n] / [Manual], completed operations
    buffer until the window fills, {!commit} is called, or the next
    {!snapshot}; a crash loses the uncommitted buffer whole — never a
    partial group. The manager's coalesced firing batches journal as
    one commit group each. *)
val open_journaled :
  path:string ->
  ?epoch:Civil.date ->
  ?lifespan:Civil.date * Civil.date ->
  ?probe_period:int ->
  ?lookahead:int ->
  ?probe_strategy:Cal_rules.Next_fire.strategy ->
  ?cache_capacity:int ->
  ?domains:int ->
  ?shards:int ->
  ?pending:[ `Heap | `Wheel ] ->
  ?max_failures:int ->
  ?retry_base:int ->
  ?injector:Cal_faults.Injector.t ->
  ?segments:int ->
  ?policy:Journal.policy ->
  unit ->
  t

(** Rebuild the session persisted at [path]: load the snapshot (when
    one exists), replay the journal's intact records, drop any torn
    tail, resume journaling. Session parameters are not persisted and
    must match the original. The recovered session supersedes the files
    at [path] — a session that was still journaling there keeps writing
    to the replaced (unlinked) file and is no longer durable.
    The journal's segment layout is auto-detected from its manifest and
    preserved; segment files decode across the session's pool lanes
    before the (serial) replay.
    @raise Session_error on a corrupt snapshot.
    @raise Journal.Journal_error on a journal corrupt beyond its tail. *)
val recover :
  path:string ->
  ?epoch:Civil.date ->
  ?lifespan:Civil.date * Civil.date ->
  ?probe_period:int ->
  ?lookahead:int ->
  ?probe_strategy:Cal_rules.Next_fire.strategy ->
  ?cache_capacity:int ->
  ?domains:int ->
  ?shards:int ->
  ?pending:[ `Heap | `Wheel ] ->
  ?max_failures:int ->
  ?retry_base:int ->
  ?injector:Cal_faults.Injector.t ->
  ?policy:Journal.policy ->
  unit ->
  t

(** Write a durable snapshot to [<journal path>.snap] (atomically) and
    truncate the journal it subsumes (including any uncommitted buffer —
    the snapshot already holds those operations).
    @raise Session_error on a non-journaled session. *)
val snapshot : t -> unit

(** Flush the journal's uncommitted group, if any — the explicit
    durability point under [Manual] (and early commit under [Group]); a
    no-op under [Sync_each] or on a non-journaled session. *)
val commit : t -> unit

(** [batch t f] runs [f] collecting every record it journals into one
    atomic commit group, appended when [f] returns: after a crash,
    either the whole batch is recovered or none of it. Nested batches
    flatten into the outermost group; on a non-journaled session this is
    just [f ()]. *)
val batch : t -> (unit -> 'a) -> 'a

(** {2 Exactly-once request ids}

    A served write batch may carry a client-supplied request id. The id
    is journaled as a [reqid] record {e inside the batch's commit group}
    (call {!mark_request} within {!batch}) and persisted by durable
    snapshots, so after any crash/recovery either the batch and its id
    both survive or neither does — a client retrying after a lost reply
    can never re-apply work whose commit group landed. The id set is
    deliberately outside {!state_digest}: it is retry plumbing, not
    user-visible state. *)

(** Has a batch carrying this id already applied (this run or any
    recovered one)? *)
val request_applied : t -> string -> bool

(** Record an id as applied and journal it; run inside {!batch} so the
    id commits atomically with the batch it names.
    @raise Session_error on a malformed id (ids are 1–128 bytes of
    [[A-Za-z0-9._:-]]). *)
val mark_request : t -> string -> unit

(** [true] exactly when {!mark_request} would accept the id. *)
val valid_req_id : string -> bool

(** Catch up after downtime: bring the clock to an instant, applying the
    policy to trigger points that passed in between (see
    {!Cal_rules.Manager.catch_up}). *)
val catch_up : t -> policy:Cal_rules.Manager.catch_up -> int -> unit

(** Lift a quarantined rule back into service; [false] when absent or
    not quarantined. *)
val requeue : t -> string -> bool

(** Names of quarantined rules, sorted. *)
val quarantined_rules : t -> string list

(** Rows of the rule_errors system table — (rule, instant, attempt,
    message) — oldest first. *)
val rule_errors : t -> (string * int * int * string) list

(** [(fire_count, consecutive failures, quarantined)] for a live rule. *)
val rule_health : t -> string -> (int * int * bool) option

val is_journaled : t -> bool
val journal_path : t -> string option

(** A canonical rendering of everything recovery promises to restore:
    clock, calendars, user-table rows (order-sensitive, rowid-free),
    rule system tables (sorted), firing/alert logs and per-rule health.
    Equal digests = observationally identical sessions; caches and
    statistics are outside the promise. *)
val state_digest : t -> string

(** {2 Simulated time} *)

(** Seconds since the epoch's midnight. *)
val now : t -> int

val today : t -> Civil.date

(** Advance the clock, firing due rules on the way. *)
val advance_to : t -> int -> unit

val advance_days : t -> int -> unit
val advance_to_date : t -> Civil.date -> unit

(** Alert messages raised by rule actions, chronological. *)
val alerts : t -> (string * int) list

val firings : t -> Cal_rules.Manager.firing list

(** {2 Statistics} *)

(** The session's materialization cache (shared by every evaluation the
    session performs). *)
val cache : t -> Calendar.t Cal_cache.t

(** Its counters: hits, misses, evictions, invalidations, insertions. *)
val cache_stats : t -> Cal_cache.stats

(** Hits over lookups; 0 before any lookup. *)
val cache_hit_rate : t -> float

(** Cumulative executor counters (tuples scanned, seq/index scans, index
    probes, plan-cache hits/misses) across every query the session's
    manager ran. *)
val exec_stats : t -> Cal_db.Exec.stats

(** The catalog plan cache's counters. *)
val plan_cache_stats : t -> Cal_db.Qplan.cache_stats

(** [(records, flushes)] of the journal — the group-commit amortization
    ratio is records/flushes; [None] on a non-journaled session. *)
val journal_stats : t -> (int * int) option

(** Multi-line summary: DBCRON activity (probes, loads, heap peak),
    calendar-cache effectiveness, the executor's access-path and
    plan-cache counters, how many rules are probed by the closed-form
    periodic path, and (on durable sessions) the journal's
    records/flushes amortization under its durability policy. *)
val stats_summary : t -> string

(** {2 Conversions} *)

val date_of_day : t -> Chronon.t -> Civil.date
val day_of_date : t -> Civil.date -> Chronon.t
