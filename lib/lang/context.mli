(** Evaluation context: the environment, the session epoch, the calendar
    lifespan (default generation bounds) and the simulated clock. *)

type t = {
  env : Env.t;
  epoch : Civil.date;  (** day chronon 1 starts here *)
  lifespan : Civil.date * Civil.date;
  clock : Clock.t option;
  max_intervals : int;  (** generation guard per [generate] call *)
  fuel : int;  (** iteration bound for script [while] loops *)
  cache : Calendar.t Cal_cache.t;
      (** materialization cache shared by every evaluation strategy;
          capacity 0 (the default) disables it *)
  resolved : int array Cal_cache.t;
      (** resolved-day memo: a whole expression's day chronons, keyed by
          its canonical form and stored as coalesced
          {!Interval_set.segments} (two words a range); same capacity as
          [cache] *)
}

(** Defaults: epoch Jan 1 1987 (the paper's system start date), a 40-year
    lifespan from the epoch year, no clock, 1M-interval generation guard,
    10k loop fuel, cache and resolved-day memo disabled
    ([cache_capacity] 0). Rebinding or removing a name in [env]
    invalidates the entries of both that depend on it. *)
val create :
  ?epoch:Civil.date ->
  ?lifespan:Civil.date * Civil.date ->
  ?clock:Clock.t ->
  ?max_intervals:int ->
  ?fuel:int ->
  ?cache_capacity:int ->
  ?env:Env.t ->
  unit ->
  t

(** [with_cache t cache] — [t] with its materialization cache swapped
    for [cache] and {e no} env-change hook registered, for short-lived
    per-domain evaluation contexts (the session cache is not
    thread-safe; workers evaluate against private clones). *)
val with_cache : t -> Calendar.t Cal_cache.t -> t

(** Lifespan expressed as an interval of [g]-chronons. *)
val lifespan_in : t -> Granularity.t -> Interval.t

(** The day chronon for "now". @raise Failure without a clock. *)
val today_exn : t -> Chronon.t
