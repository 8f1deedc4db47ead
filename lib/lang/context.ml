(** Evaluation context: the environment, the session epoch, the calendar's
    lifespan (default generation bounds) and the simulated clock. *)

type t = {
  env : Env.t;
  epoch : Civil.date;
  lifespan : Civil.date * Civil.date;
  clock : Clock.t option;
  max_intervals : int;
  fuel : int;  (** iteration bound for script [while] loops *)
  cache : Calendar.t Cal_cache.t;
  resolved : int array Cal_cache.t;
      (** resolved-day memo: canonical expression -> coalesced day
          {!Interval_set.segments} *)
}

let create ?(epoch = Unit_system.default_epoch) ?lifespan ?clock
    ?(max_intervals = 1_000_000) ?(fuel = 10_000) ?(cache_capacity = 0) ?env () =
  let lifespan =
    match lifespan with
    | Some l -> l
    | None ->
      (* Default lifespan: 40 years starting at the epoch year. *)
      ( Civil.make epoch.Civil.year 1 1,
        Civil.make (epoch.Civil.year + 39) 12 31 )
  in
  let env = match env with Some e -> e | None -> Env.create () in
  let cache = Cal_cache.create ~capacity:cache_capacity () in
  let resolved = Cal_cache.create ~capacity:cache_capacity () in
  (* Rebinding a calendar name drops every cached materialization and
     resolved day set that was derived from it. *)
  Env.on_change env (fun name ->
      ignore (Cal_cache.invalidate_dep cache name);
      ignore (Cal_cache.invalidate_dep resolved name));
  { env; epoch; lifespan; clock; max_intervals; fuel; cache; resolved }

(** A transient view of [t] whose materializations go through [cache]
    instead of the session cache. No env-change hook is registered: the
    clone is meant for short-lived read-only evaluation (one parallel
    batch in a worker domain), and a hook per clone would accumulate on
    the shared environment. *)
let with_cache t cache = { t with cache }

(** Lifespan expressed as an interval of [g]-chronons. *)
let lifespan_in t g =
  let d1, d2 = t.lifespan in
  Unit_system.chronon_span_of_dates ~epoch:t.epoch g d1 d2

(** The day chronon for "now"; requires a clock. *)
let today_exn t =
  match t.clock with
  | Some c -> Clock.today ~epoch:t.epoch c
  | None -> failwith "calendar context has no clock: `today' is undefined"
