(** The top-level façade: one session = one extensible database with the
    calendar system installed, reproducing the paper's architecture.

    A session owns a simulated clock, a calendar evaluation context, a
    database catalog and a rule manager. Creating it:

    {ul
    {- registers the {e calendar} abstract data type with the database
       (POSTGRES-style object extension);}
    {- creates the CALENDARS system table of Figure 1 (name,
       derivation-script, eval-plan, lifespan, granularity, values);}
    {- installs the calendar resolver, so the query language's
       [on <calendar-expression>] clause and time-based rules evaluate
       through the parser/planner;}
    {- declares date operators, including day-count conventions with
       user-defined semantics for date arithmetic ([day_count],
       [year_frac], [accrued]) and [date('YYYY-MM-DD')].}} *)

open Cal_lang
open Cal_db

type Value.ext += Calendar_v of Calendar.t

type t = {
  ctx : Context.t;
  catalog : Catalog.t;
  manager : Cal_rules.Manager.t;
  clock : Clock.t;
  injector : Cal_faults.Injector.t;
  mutable journal : Journal.t option;  (** present on durable sessions *)
  mutable batch_buf : string list option;
      (** inside {!batch}: records collected for one commit group,
          newest first *)
  req_ids : (string, unit) Hashtbl.t;
      (** client request ids already applied (exactly-once dedup);
          journaled as [reqid] records, so the set survives recovery *)
}

exception Session_error of string

(* Durable sessions journal every completed state-changing operation as
   one record, [<kind> <payload>]. Operations that raise journal
   nothing: their raising paths all validate before mutating. Replay
   applies records with [journal = None], so nothing is re-journaled. *)
let journal_record t payload =
  match t.journal with
  | None -> ()
  | Some j -> (
    match t.batch_buf with
    | Some acc -> t.batch_buf <- Some (payload :: acc)
    | None -> Journal.append j payload)

(* Journal several records as one atomic commit group (a coalesced
   firing batch). Inside {!batch} they fold into the enclosing group. *)
let journal_records t payloads =
  match t.journal with
  | None -> ()
  | Some j -> (
    match t.batch_buf with
    | Some acc -> t.batch_buf <- Some (List.rev_append payloads acc)
    | None -> Journal.append_batch j payloads)

(* Run [f] with journaling suspended: used by [load], whose inner
   definitions would otherwise journal records the [load] record already
   subsumes. *)
let unlogged t f =
  let j = t.journal in
  t.journal <- None;
  Fun.protect ~finally:(fun () -> t.journal <- j) f

let register_calendar_adt () =
  Value.register_adt
    {
      Value.tag = "calendar";
      pp = (function Calendar_v c -> Some (Calendar.to_string c) | _ -> None);
      equal =
        (fun a b ->
          match (a, b) with
          | Calendar_v x, Calendar_v y -> Some (Calendar.equal x y)
          | _ -> None);
      compare = None;
    }

let calendars_schema =
  Schema.make ~table:"calendars"
    [
      { Schema.name = "name"; ty = Schema.TText; valid_time = false };
      { Schema.name = "derivation_script"; ty = Schema.TText; valid_time = false };
      { Schema.name = "eval_plan"; ty = Schema.TText; valid_time = false };
      { Schema.name = "lifespan"; ty = Schema.TInterval; valid_time = false };
      { Schema.name = "granularity"; ty = Schema.TText; valid_time = false };
      { Schema.name = "vals"; ty = Schema.TArray Schema.TInterval; valid_time = false };
    ]

(* Convert a calendar value at [fine] granularity to day chronons (the
   unit valid-time columns use). Day d is included when the interval
   covers any instant of d. *)
let to_day_set (ctx : Context.t) fine set =
  if Granularity.equal fine Granularity.Days then set
  else
    Interval_set.map
      (fun iv ->
        let lo_instant =
          Unit_system.start_of_index ~epoch:ctx.Context.epoch fine
            (Chronon.to_offset (Interval.lo iv))
        in
        let hi_instant =
          Unit_system.start_of_index ~epoch:ctx.Context.epoch fine
            (Chronon.to_offset (Interval.hi iv) + 1)
          - 1
        in
        Interval.make
          (Chronon.of_offset
             (Unit_system.index_of_instant ~epoch:ctx.Context.epoch Granularity.Days lo_instant))
          (Chronon.of_offset
             (Unit_system.index_of_instant ~epoch:ctx.Context.epoch Granularity.Days hi_instant)))
      set

(* A calendar expression source's day chronons as coalesced segments,
   through the resolved-day memo: keyed by the canonical expression,
   invalidated through the names {!Canon.deps} reports. Expressions that
   mention [today] (or an unbound name) have no deps and are evaluated
   every time, so [advance] never serves a stale set. *)
let resolve_segments (ctx : Context.t) source =
  match Parser.expr source with
  | Error e -> raise (Session_error (Printf.sprintf "bad calendar expression %S: %s" source e))
  | Ok expr -> (
    let eval () =
      let cal, _ = Interp.eval_expr_planned ctx expr in
      let fine = Gran.finest_of_expr ctx.env expr in
      Interval_set.segments (to_day_set ctx fine (Calendar.flatten cal))
    in
    match Canon.deps ctx.env expr with
    | None -> eval ()
    | Some deps -> (
      let key = Canon.to_string (Canon.canon expr) in
      match Cal_cache.find ctx.resolved key with
      | Some segs -> segs
      | None ->
        let segs = eval () in
        Cal_cache.add ctx.resolved ~key ~deps segs;
        segs))

(** Evaluate a calendar expression source to its day chronons. *)
let resolve_days ctx source = Interval_set.of_segments (resolve_segments ctx source)

let date_of_value ~epoch = function
  | Value.Chronon c -> Unit_system.date_of_chronon ~epoch Granularity.Days c
  | v -> raise (Qexpr.Eval_error ("expected a chronon, got " ^ Value.to_string v))

let register_date_operators (ctx : Context.t) catalog =
  let epoch = ctx.Context.epoch in
  let reg name arity fn = Catalog.register_operator catalog ~name ~arity fn in
  reg "date" 1 (function
    | [ Value.Text s ] -> (
      match Civil.of_string s with
      | Some d -> Value.Chronon (Unit_system.chronon_of_date ~epoch Granularity.Days d)
      | None -> raise (Qexpr.Eval_error ("bad date literal " ^ s)))
    | _ -> Value.Null);
  reg "date_text" 1 (function
    | [ v ] -> Value.Text (Civil.to_string (date_of_value ~epoch v))
    | _ -> Value.Null);
  reg "weekday" 1 (function
    | [ v ] -> Value.Int (Civil.weekday (date_of_value ~epoch v))
    | _ -> Value.Null);
  let convention v =
    match v with
    | Value.Text s -> (
      match Day_count.of_string s with
      | Some c -> c
      | None -> raise (Qexpr.Eval_error ("unknown day-count convention " ^ s)))
    | v -> raise (Qexpr.Eval_error ("expected a convention name, got " ^ Value.to_string v))
  in
  (* User-defined semantics for date arithmetic (section 1): the
     convention argument selects the calendar the arithmetic uses. *)
  reg "day_count" 3 (function
    | [ conv; a; b ] ->
      Value.Int
        (Day_count.day_count (convention conv) (date_of_value ~epoch a) (date_of_value ~epoch b))
    | _ -> Value.Null);
  reg "year_frac" 3 (function
    | [ conv; a; b ] ->
      Value.Float
        (Day_count.year_fraction (convention conv) (date_of_value ~epoch a)
           (date_of_value ~epoch b))
    | _ -> Value.Null);
  reg "accrued" 5 (function
    | [ conv; Value.Float rate; Value.Float face; a; b ] ->
      Value.Float
        (Day_count.accrued_interest ~convention:(convention conv) ~annual_rate:rate ~face
           (date_of_value ~epoch a) (date_of_value ~epoch b))
    | _ -> Value.Null)

let register_calendar_operators ctx catalog =
  Catalog.register_operator catalog ~name:"calendar_contains" ~arity:2 (function
    | [ Value.Text source; Value.Chronon c ] ->
      Value.Bool (Interval_set.segments_contain (resolve_segments ctx source) c)
    | _ -> Value.Null);
  Catalog.register_operator catalog ~name:"calendar_value" ~arity:1 (function
    | [ Value.Text source ] -> (
      match Parser.expr source with
      | Error e -> raise (Qexpr.Eval_error e)
      | Ok expr ->
        let cal, _ = Interp.eval_expr_planned ctx expr in
        Value.Ext ("calendar", Calendar_v cal))
    | _ -> Value.Null)

let create ?(epoch = Unit_system.default_epoch) ?lifespan ?probe_period ?lookahead
    ?probe_strategy ?(cache_capacity = 512) ?domains ?shards ?pending ?max_failures
    ?retry_base ?injector () =
  register_calendar_adt ();
  let clock = Clock.create () in
  let env = Env.create () in
  let ctx = Context.create ~epoch ?lifespan ~clock ~env ~cache_capacity () in
  let catalog = Catalog.create () in
  ignore (Catalog.create_table catalog calendars_schema);
  Catalog.set_calendar_resolver catalog (resolve_days ctx);
  register_date_operators ctx catalog;
  register_calendar_operators ctx catalog;
  let manager =
    Cal_rules.Manager.create ?probe_period ?lookahead ?probe_strategy ?domains ?shards
      ?pending ?max_failures ?retry_base ?injector ctx catalog
  in
  { ctx; catalog; manager; clock; injector = Cal_rules.Manager.injector manager;
    journal = None; batch_buf = None; req_ids = Hashtbl.create 64 }

(* --- CALENDARS catalog maintenance ---------------------------------- *)

let lifespan_interval t =
  let d1, d2 = t.ctx.Context.lifespan in
  Unit_system.chronon_span_of_dates ~epoch:t.ctx.Context.epoch Granularity.Days d1 d2

let calendars_table t = Catalog.table t.catalog "calendars"

let catalog_row t ~name ~script ~plan ~granularity ~values =
  ignore
    (Table.insert (calendars_table t)
       [|
         Value.Text name;
         Value.Text script;
         Value.Text plan;
         Value.Interval (lifespan_interval t);
         Value.Text (Granularity.to_string granularity);
         Value.Array (Array.of_list (List.map (fun iv -> Value.Interval iv) values));
       |])

(** Define a derived calendar from a derivation script (Figure 1's
    Tuesdays row). The script is parsed; its evaluation plan is compiled
    and stored in the CALENDARS table. *)
let define_calendar_unlogged t ~name ~script =
  if Env.mem t.ctx.Context.env name then Error (Printf.sprintf "calendar %s already exists" name)
  else
    match Env.define_script t.ctx.Context.env ~name ~source:script with
    | Error e -> Error e
    | Ok () -> (
      let env = t.ctx.Context.env in
      let granularity =
        match Gran.of_expr env (Ast.Ident name) with
        | Some g -> g
        | None -> Granularity.Days
      in
      (* The eval-plan: factorize-and-plan the script when it is
         straight-line; control-flow scripts are marked procedural. *)
      let plan =
        match Planner.plan t.ctx (Ast.Ident name) with
        | plan -> Plan.to_string plan
        | exception _ -> "<procedural script>"
      in
      catalog_row t ~name ~script ~plan ~granularity ~values:[];
      Ok ())

let define_calendar t ~name ~script =
  let r = define_calendar_unlogged t ~name ~script in
  journal_record t (Printf.sprintf "cal %s %s" name script);
  r

let pairs_to_string pairs =
  String.concat "," (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) pairs)

(** Define a calendar by explicit values (e.g. HOLIDAYS), stored in the
    CALENDARS table's [vals] column. *)
let define_stored_calendar t ~name ?(granularity = Granularity.Days) pairs =
  let values = Interval_set.of_pairs pairs in
  Env.define_stored t.ctx.Context.env ~name ~granularity values;
  catalog_row t ~name ~script:"" ~plan:"" ~granularity ~values:(Interval_set.to_list values);
  journal_record t
    (Printf.sprintf "stored %s %s %s" name (Granularity.to_string granularity)
       (pairs_to_string pairs))

(** The CALENDARS tuple for one calendar, as in Figure 1. *)
let calendar_row t name =
  Table.fold (calendars_table t)
    (fun acc _ tuple ->
      match tuple.(0) with
      | Value.Text n when String.lowercase_ascii n = String.lowercase_ascii name -> Some tuple
      | _ -> acc)
    None

(* --- evaluation and queries ----------------------------------------- *)

(** Evaluate calendar-language input (expression or script). *)
let eval t source = Interp.eval_string t.ctx source

(** Evaluate a calendar expression to its interval value. *)
let eval_calendar t source =
  match Parser.expr source with
  | Error e -> Error e
  | Ok expr -> (
    match Interp.eval_expr_planned t.ctx expr with
    | cal, _ -> Ok cal
    | exception exn -> Error (Printexc.to_string exn))

(** Run a query-language command (rules dispatch to the manager). On a
    durable session the statement is journaled once it completes —
    [Error] results too: they replay to the same (non-)state. *)
let query t source =
  let r = Cal_rules.Manager.run_query t.manager source in
  journal_record t ("q " ^ source);
  r

let query_exn t source =
  match query t source with
  | Ok r -> r
  | Error e -> raise (Session_error e)

(* Snapshot publication: O(1) copy-on-write freeze of the whole catalog;
   readers run retrieves against the result with [Exec.run_read]. *)
let freeze t = Catalog.freeze t.catalog

(* --- exactly-once request ids ---------------------------------------- *)

(* One token, no whitespace or control bytes: it must survive the
   space-delimited journal-record framing and the wire protocol. *)
let valid_req_id id =
  let n = String.length id in
  n >= 1 && n <= 128
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' | ':' -> true
         | _ -> false)
       id

(** Has a write batch carrying [id] already applied (this run or any
    recovered one)? *)
let request_applied t id = Hashtbl.mem t.req_ids id

(** Record [id] as applied and journal it — callers run this inside
    {!batch} with the batch's statements, so the id commits atomically
    with the work it names: after recovery either both are present or
    neither, and a client retry can never re-apply a batch whose commit
    group survived. @raise Session_error on a malformed id. *)
let mark_request t id =
  if not (valid_req_id id) then raise (Session_error ("bad request id " ^ String.escaped id));
  Hashtbl.replace t.req_ids id ();
  journal_record t ("reqid " ^ id)

(* --- persistence ------------------------------------------------------ *)

(* A saved session is a sectioned text file:
     %%calendar <name>        followed by the derivation script
     %%stored <name> <gran>   followed by endpoint pairs (a,b),(c,d)
     %%schema                 followed by a query-language dump script
     %%rules                  followed by define-rule commands
   Section payloads are the lines up to the next %% header.

   A durable save (a snapshot) adds the sections that make the restored
   session bit-identical, not merely schema-equivalent:
     %%clock <now>            the simulated instant (no payload)
     %%rulestate              <name> <fire_count> <failures> <0|1> <next|->
     %%firings                <rule> <at>, chronological
     %%alerts                 <at> <escaped message>, chronological
     %%errors                 <rule> <at> <attempt> <escaped message>
   %%clock leads, so rule definitions evaluate at the right instant, and
   its presence is what triggers the manager's post-restore cron
   rebuild. *)

let system_tables = [ "calendars"; "rule_info"; "rule_time"; "rule_errors" ]

(** Render the session (calendars, user tables with their indexes and
    rows, rules) as a loadable script; [durable] adds the clock,
    per-rule counters, firing/alert logs and rule_errors rows (the
    snapshot format). @raise Dump.Dump_error on undumpable values
    (registered-ADT columns). *)
let save ?(durable = false) t =
  let buf = Buffer.create 4096 in
  if durable then Buffer.add_string buf (Printf.sprintf "%%%%clock %d\n" (Clock.now t.clock));
  Table.iter (calendars_table t) (fun _ tuple ->
      match tuple with
      | [| Value.Text name; Value.Text script; _; _; Value.Text gran; Value.Array vals |] ->
        if script <> "" then
          Buffer.add_string buf (Printf.sprintf "%%%%calendar %s
%s
" name script)
        else
          Buffer.add_string buf
            (Printf.sprintf "%%%%stored %s %s
%s
" name gran
               (String.concat ","
                  (List.map
                     (function
                       | Value.Interval iv ->
                         Printf.sprintf "(%d,%d)" (Interval.lo iv) (Interval.hi iv)
                       | _ -> "")
                     (Array.to_list vals))))
      | _ -> ());
  Buffer.add_string buf "%%schema
";
  Buffer.add_string buf (Dump.dump t.catalog ~skip:system_tables ());
  Buffer.add_string buf "%%rules
";
  List.iter
    (fun r -> Buffer.add_string buf (Qast.to_string (Qast.Define_rule r) ^ ";
"))
    (Cal_rules.Manager.rules t.manager);
  if durable then begin
    Buffer.add_string buf "%%rulestate\n";
    List.iter
      (fun name ->
        match Cal_rules.Manager.rule_health t.manager name with
        | None -> ()
        | Some (fire_count, failures, quarantined) ->
          Buffer.add_string buf
            (Printf.sprintf "%s %d %d %d %s\n" name fire_count failures
               (if quarantined then 1 else 0)
               (match Cal_rules.Manager.next_fire t.manager name with
               | Some at -> string_of_int at
               | None -> "-")))
      (Cal_rules.Manager.rule_names t.manager);
    Buffer.add_string buf "%%firings\n";
    List.iter
      (fun { Cal_rules.Manager.rule; at } ->
        Buffer.add_string buf (Printf.sprintf "%s %d\n" rule at))
      (Cal_rules.Manager.firings t.manager);
    Buffer.add_string buf "%%alerts\n";
    List.iter
      (fun (msg, at) -> Buffer.add_string buf (Printf.sprintf "%d %s\n" at (String.escaped msg)))
      (Cal_rules.Manager.alerts t.manager);
    Buffer.add_string buf "%%errors\n";
    List.iter
      (fun (name, at, attempt, err) ->
        Buffer.add_string buf
          (Printf.sprintf "%s %d %d %s\n" name at attempt (String.escaped err)))
      (Cal_rules.Manager.rule_errors t.manager);
    (* The applied-request-id set: a snapshot truncates the journal, so
       the ids journaled there must survive in the snapshot or a client
       retry after recovery would re-apply its batch. *)
    Buffer.add_string buf "%%reqids\n";
    List.iter
      (fun id -> Buffer.add_string buf (id ^ "\n"))
      (List.sort String.compare (Hashtbl.fold (fun id () acc -> id :: acc) t.req_ids []))
  end;
  Buffer.contents buf

let parse_pairs s =
  (* "(a,b),(c,d)" *)
  let s = String.trim s in
  if s = "" then []
  else
    String.split_on_char ')' s
    |> List.filter_map (fun chunk ->
           let chunk = String.trim chunk in
           let chunk =
             if String.length chunk > 0 && (chunk.[0] = ',' || chunk.[0] = '(') then
               String.sub chunk 1 (String.length chunk - 1)
             else chunk
           in
           let chunk =
             if String.length chunk > 0 && chunk.[0] = '(' then
               String.sub chunk 1 (String.length chunk - 1)
             else chunk
           in
           match String.split_on_char ',' chunk with
           | [ a; b ] -> (
             match (int_of_string_opt (String.trim a), int_of_string_opt (String.trim b)) with
             | Some a, Some b -> Some (a, b)
             | _ -> None)
           | _ -> None)

(** Load a script produced by {!save} into this (fresh) session. *)
let load_unlogged t script =
  let lines = String.split_on_char '
' script in
  (* Split into (header, payload-lines) sections. *)
  let sections = ref [] in
  let current = ref None in
  let flush () =
    match !current with
    | Some (header, body) -> sections := (header, String.concat "
" (List.rev body)) :: !sections
    | None -> ()
  in
  List.iter
    (fun line ->
      if String.length line >= 2 && String.sub line 0 2 = "%%" then begin
        flush ();
        current := Some (String.sub line 2 (String.length line - 2), [])
      end
      else
        match !current with
        | Some (h, body) -> current := Some (h, line :: body)
        | None -> ())
    lines;
  flush ();
  let durable_seen = ref false in
  let non_empty payload =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' payload)
  in
  let apply (header, payload) =
    match String.split_on_char ' ' (String.trim header) with
    | [ "calendar"; name ] -> define_calendar t ~name ~script:(String.trim payload)
    | [ "stored"; name; gran ] -> (
      match Granularity.of_string gran with
      | Some granularity ->
        define_stored_calendar t ~name ~granularity (parse_pairs payload);
        Ok ()
      | None -> Error ("unknown granularity " ^ gran))
    | [ "schema" ] -> (
      match Dump.load t.catalog payload with Ok _ -> Ok () | Error e -> Error e)
    | [ "rules" ] -> (
      match Qparser.program payload with
      | Error e -> Error e
      | Ok queries ->
        List.fold_left
          (fun acc q ->
            match (acc, q) with
            | Error _, _ -> acc
            | Ok (), Qast.Define_rule r -> Cal_rules.Manager.define t.manager r
            | Ok (), _ -> Error "rules section may only contain rule definitions")
          (Ok ()) queries)
    | [ "clock"; n ] -> (
      match int_of_string_opt n with
      | Some now ->
        durable_seen := true;
        Cal_rules.Manager.restore_clock t.manager now;
        Ok ()
      | None -> Error ("bad clock instant " ^ n))
    | [ "rulestate" ] ->
      List.iter
        (fun line ->
          match String.split_on_char ' ' (String.trim line) with
          | [ name; fc; fl; q; next ] ->
            Cal_rules.Manager.set_rule_state t.manager name ~fire_count:(int_of_string fc)
              ~failures:(int_of_string fl) ~quarantined:(q = "1")
              ~next:(if next = "-" then None else Some (int_of_string next))
          | _ -> ())
        (non_empty payload);
      Ok ()
    | [ "firings" ] ->
      Cal_rules.Manager.restore_firings t.manager
        (List.filter_map
           (fun line ->
             match String.split_on_char ' ' (String.trim line) with
             | [ rule; at ] -> Some { Cal_rules.Manager.rule; at = int_of_string at }
             | _ -> None)
           (non_empty payload));
      Ok ()
    | [ "alerts" ] ->
      Cal_rules.Manager.restore_alerts t.manager
        (List.filter_map
           (fun line ->
             match String.index_opt line ' ' with
             | Some i ->
               Some
                 ( Scanf.unescaped (String.sub line (i + 1) (String.length line - i - 1)),
                   int_of_string (String.sub line 0 i) )
             | None -> None)
           (non_empty payload));
      Ok ()
    | [ "errors" ] ->
      let tbl = Catalog.table t.catalog "rule_errors" in
      List.iter
        (fun line ->
          match String.split_on_char ' ' line with
          | name :: at :: attempt :: rest ->
            ignore
              (Table.insert tbl
                 [|
                   Value.Text name;
                   Value.Int (int_of_string at);
                   Value.Int (int_of_string attempt);
                   Value.Text (Scanf.unescaped (String.concat " " rest));
                 |])
          | _ -> ())
        (non_empty payload);
      Ok ()
    | [ "reqids" ] ->
      List.iter (fun id -> Hashtbl.replace t.req_ids (String.trim id) ()) (non_empty payload);
      Ok ()
    | _ -> Error ("unknown section " ^ header)
  in
  let r =
    List.fold_left
      (fun acc section -> match acc with Error _ -> acc | Ok () -> apply section)
      (Ok ())
      (List.rev !sections)
  in
  (* A durable script restored RULE_TIME verbatim; rebuild DBCRON's heap
     from it at the restored instant. *)
  if !durable_seen then Cal_rules.Manager.after_restore t.manager;
  r

let load t script =
  let r = unlogged t (fun () -> load_unlogged t script) in
  journal_record t ("load " ^ script);
  r

(* --- time ------------------------------------------------------------ *)

let now t = Clock.now t.clock
let today t = Clock.date ~epoch:t.ctx.Context.epoch t.clock

let advance_to t instant =
  (* The injector may rewrite the target (downtime / regression drills);
     the journal records the instant actually applied, since replay does
     not consult the injector. *)
  let instant = Cal_faults.Injector.jump_clock t.injector instant in
  Cal_rules.Manager.advance_to t.manager instant;
  journal_record t (Printf.sprintf "advance %d" instant)

let advance_days t days = advance_to t (now t + (days * 86400))

let advance_to_date t date =
  let target = (Civil.rata_die date - Civil.rata_die t.ctx.Context.epoch) * 86400 in
  advance_to t target

let alerts t = Cal_rules.Manager.alerts t.manager
let firings t = Cal_rules.Manager.firings t.manager

(* --- durability: journaled sessions, snapshots, recovery ------------- *)

let policy_to_string = function
  | Cal_rules.Manager.Fire_once -> "fire_once"
  | Cal_rules.Manager.Skip -> "skip"
  | Cal_rules.Manager.Replay_all -> "replay_all"

let policy_of_string = function
  | "fire_once" -> Some Cal_rules.Manager.Fire_once
  | "skip" -> Some Cal_rules.Manager.Skip
  | "replay_all" -> Some Cal_rules.Manager.Replay_all
  | _ -> None

(** Catch up after downtime: bring the clock to [instant], applying
    [policy] to trigger points that passed in between (see
    {!Cal_rules.Manager.catch_up}). *)
let catch_up t ~policy instant =
  Cal_rules.Manager.catch_up t.manager ~policy instant;
  journal_record t (Printf.sprintf "catchup %s %d" (policy_to_string policy) instant)

(** Lift a quarantined rule back into service. *)
let requeue t name =
  let r = Cal_rules.Manager.requeue t.manager name in
  if r then journal_record t ("requeue " ^ name);
  r

let quarantined_rules t = Cal_rules.Manager.quarantined_rules t.manager
let rule_errors t = Cal_rules.Manager.rule_errors t.manager
let rule_health t name = Cal_rules.Manager.rule_health t.manager name

let split_record r =
  match String.index_opt r ' ' with
  | Some i -> (String.sub r 0 i, String.sub r (i + 1) (String.length r - i - 1))
  | None -> (r, "")

(* Replay one journal record. The caller guarantees [t.journal = None],
   so nothing applied here is re-journaled; deterministic failures
   (a replayed statement that errored the first time) fail identically
   and are ignored just as the original caller saw them as values. *)
let apply_record t record =
  let kind, rest = split_record record in
  match kind with
  | "q" -> ignore (query t rest)
  | "cal" ->
    let name, script = split_record rest in
    ignore (define_calendar t ~name ~script)
  | "stored" -> (
    let name, rest = split_record rest in
    let gran, pairs = split_record rest in
    match Granularity.of_string gran with
    | Some granularity -> define_stored_calendar t ~name ~granularity (parse_pairs pairs)
    | None -> raise (Session_error ("journal: unknown granularity " ^ gran)))
  | "advance" -> Cal_rules.Manager.advance_to t.manager (int_of_string (String.trim rest))
  | "catchup" -> (
    let pol, inst = split_record rest in
    match policy_of_string pol with
    | Some policy -> Cal_rules.Manager.catch_up t.manager ~policy (int_of_string (String.trim inst))
    | None -> raise (Session_error ("journal: unknown catch-up policy " ^ pol)))
  | "requeue" -> ignore (Cal_rules.Manager.requeue t.manager (String.trim rest))
  | "load" -> ignore (load_unlogged t rest)
  | "fired" ->
    (* Firing provenance written by the manager's journal sink: replay
       re-fires deterministically through the advance/catchup records,
       so these are no-ops here. *)
    ()
  | "reqid" ->
    (* A client request id that committed with its batch: restore it to
       the dedup set so a post-recovery retry is refused. *)
    Hashtbl.replace t.req_ids (String.trim rest) ()
  | _ -> raise (Session_error ("journal: unknown record kind " ^ kind))

let snap_path path = path ^ ".snap"
let journal_path t = Option.map Journal.path t.journal
let is_journaled t = t.journal <> None

(* Hand the manager's coalesced firing batches to the journal as commit
   groups. Installed only once the journal is live (after any replay),
   and [journal_records] is a no-op while [load] suspends journaling. *)
let install_firing_journal t =
  Cal_rules.Manager.set_journal_sink t.manager (fun records -> journal_records t records)

(** Flush the journal's uncommitted group, if any — the explicit
    durability point under [Manual] (and early commit under [Group]);
    a no-op under [Sync_each] or on a non-journaled session. *)
let commit t = match t.journal with Some j -> Journal.commit j | None -> ()

(** Run [f] collecting every record it journals — statements, advances,
    firing batches — into one atomic commit group, appended when [f]
    returns (even by exception: the operations did complete and their
    records must survive together). Nested batches flatten into the
    outermost group. On a non-journaled session, just [f ()]. *)
let batch t f =
  match (t.journal, t.batch_buf) with
  | None, _ | _, Some _ -> f ()
  | Some j, None ->
    t.batch_buf <- Some [];
    let finish () =
      match t.batch_buf with
      | Some acc ->
        t.batch_buf <- None;
        (* The journal handle may be dead if a simulated crash landed
           inside the batch — the group is lost with the process image,
           exactly like an uncommitted buffer. *)
        (try Journal.append_batch j (List.rev acc) with Journal.Journal_error _ -> ())
      | None -> ()
    in
    (match f () with
    | v ->
      finish ();
      v
    | exception e ->
      (* Keep [f]'s exception even if the group append also fails. *)
      (try finish () with _ -> ());
      raise e)

(** Open a fresh durable session journaling to [path]: any stale journal
    or snapshot at that path is superseded. Accepts {!create}'s
    parameters. [policy] defaults to {!Journal.policy_of_env} (normally
    [Sync_each]). *)
let open_journaled ~path ?epoch ?lifespan ?probe_period ?lookahead ?probe_strategy
    ?cache_capacity ?domains ?shards ?pending ?max_failures ?retry_base ?injector
    ?(segments = 1) ?policy () =
  let policy = match policy with Some p -> p | None -> Journal.policy_of_env () in
  let t =
    create ?epoch ?lifespan ?probe_period ?lookahead ?probe_strategy ?cache_capacity ?domains
      ?shards ?pending ?max_failures ?retry_base ?injector ()
  in
  if Sys.file_exists (snap_path path) then Sys.remove (snap_path path);
  Journal.rewrite ~segments path [];
  t.journal <- Some (Journal.open_append ~policy ~injector:t.injector ~segments path);
  install_firing_journal t;
  t

(** Rebuild the session at [path]: load the snapshot (when one exists),
    replay the journal's intact records, drop any torn tail, and resume
    journaling. The session parameters must match those the journaled
    session was opened with — they are not persisted.
    @raise Session_error on a corrupt snapshot. *)
let recover ~path ?epoch ?lifespan ?probe_period ?lookahead ?probe_strategy ?cache_capacity
    ?domains ?shards ?pending ?max_failures ?retry_base ?injector ?policy () =
  let policy = match policy with Some p -> p | None -> Journal.policy_of_env () in
  let t =
    create ?epoch ?lifespan ?probe_period ?lookahead ?probe_strategy ?cache_capacity ?domains
      ?shards ?pending ?max_failures ?retry_base ?injector ()
  in
  let sp = snap_path path in
  (if Sys.file_exists sp then begin
     let ic = open_in_bin sp in
     let text = really_input_string ic (in_channel_length ic) in
     close_in ic;
     match load_unlogged t text with
     | Ok () -> ()
     | Error e -> raise (Session_error ("recover: bad snapshot: " ^ e))
   end);
  (* The journal keeps the layout it was written with; segmented files
     decode in parallel across the manager's lanes before the serial
     replay. *)
  let segments = Journal.detect_segments path in
  let groups =
    Journal.read_groups ~domains:(Cal_rules.Manager.domains t.manager) path
  in
  List.iter (apply_record t) (List.concat groups);
  (* Re-frame the files so a torn tail is gone before appends resume,
     preserving commit-group framing for the surviving records. *)
  Journal.rewrite_groups ~segments path groups;
  t.journal <- Some (Journal.open_append ~policy ~injector:t.injector ~segments path);
  install_firing_journal t;
  t

(** Write a durable snapshot next to the journal ([<path>.snap],
    atomically) and truncate the journal it subsumes.
    @raise Session_error on a non-journaled session. *)
let snapshot t =
  match t.journal with
  | None -> raise (Session_error "snapshot requires a journaled session")
  | Some j ->
    let text = save ~durable:true t in
    let sp = snap_path (Journal.path j) in
    let tmp = sp ^ ".tmp" in
    let oc = open_out_bin tmp in
    output_string oc text;
    close_out oc;
    Sys.rename tmp sp;
    Journal.truncate j

(** A canonical rendering of everything recovery promises to restore:
    the clock, calendar catalog, user tables (row order, rowids
    excluded — snapshot load compacts them), rule system tables (sorted;
    definition order is not canonical), firing and alert logs, and
    per-rule health. Two sessions with equal digests are
    observationally identical; caches and statistics are deliberately
    outside the promise. *)
let state_digest t =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let row_text tuple = String.concat "|" (Array.to_list (Array.map Value.to_string tuple)) in
  add "clock %d" (Clock.now t.clock);
  Table.iter (calendars_table t) (fun _ tuple -> add "calendar %s" (row_text tuple));
  List.iter
    (fun name ->
      if not (List.mem name system_tables) then begin
        add "table %s" name;
        Table.iter (Catalog.table t.catalog name) (fun _ tuple -> add "row %s" (row_text tuple))
      end)
    (Catalog.table_names t.catalog);
  List.iter
    (fun name ->
      match Catalog.table_opt t.catalog name with
      | None -> ()
      | Some tbl ->
        let rows = Table.fold tbl (fun acc _ tuple -> row_text tuple :: acc) [] in
        List.iter (add "%s %s" name) (List.sort String.compare rows))
    [ "rule_info"; "rule_time"; "rule_errors" ];
  List.iter
    (fun { Cal_rules.Manager.rule; at } -> add "firing %s %d" rule at)
    (Cal_rules.Manager.firings t.manager);
  List.iter (fun (msg, at) -> add "alert %d %s" at (String.escaped msg)) (alerts t);
  List.iter
    (fun name ->
      match Cal_rules.Manager.rule_health t.manager name with
      | None -> ()
      | Some (fire_count, failures, quarantined) ->
        add "rule %s %d %d %b %s" name fire_count failures quarantined
          (match Cal_rules.Manager.next_fire t.manager name with
          | Some at -> string_of_int at
          | None -> "-"))
    (Cal_rules.Manager.rule_names t.manager);
  Buffer.contents buf

(* --- statistics ------------------------------------------------------ *)

let cache t = t.ctx.Context.cache

(** Counters of the session's materialization cache. *)
let cache_stats t = Cal_cache.stats (cache t)

let cache_hit_rate t = Cal_cache.hit_rate (cache t)

(** Cumulative executor counters (scans, index probes, plan-cache
    traffic) across every query this session's manager ran. *)
let exec_stats t = Cal_rules.Manager.exec_stats t.manager

(** The catalog plan cache's counters. *)
let plan_cache_stats t = Cal_rules.Manager.plan_cache_stats t.manager

(** [(records, flushes)] of the journal — the group-commit amortization
    ratio is records/flushes; [None] on a non-journaled session. *)
let journal_stats t =
  Option.map (fun j -> (Journal.appended j, Journal.flushes j)) t.journal

(** Multi-line session statistics: DBCRON activity, calendar-cache
    effectiveness, and the executor's access-path / plan-cache
    decisions. *)
let stats_summary t =
  let probes, loaded = Cal_rules.Manager.dbcron_stats t.manager in
  let heap_peak = Cal_rules.Manager.dbcron_heap_peak t.manager in
  let c = cache_stats t in
  let e = exec_stats t in
  let p = plan_cache_stats t in
  String.concat "\n"
    [
      Printf.sprintf
        "dbcron: %d probes, %d loads, heap peak %d; cache: %d/%d hits (%.1f%%), %d evictions, %d invalidations"
        probes loaded heap_peak c.Cal_cache.hits
        (c.Cal_cache.hits + c.Cal_cache.misses)
        (100. *. cache_hit_rate t)
        c.Cal_cache.evictions c.Cal_cache.invalidations;
      Printf.sprintf
        "exec: %d scanned, %d seq scans, %d index scans, %d index probes; plan cache: %d hits, %d misses"
        e.Cal_db.Exec.scanned e.Cal_db.Exec.seq_scans e.Cal_db.Exec.index_scans
        e.Cal_db.Exec.index_probes e.Cal_db.Exec.plan_cache_hits
        e.Cal_db.Exec.plan_cache_misses;
      Printf.sprintf
        "plan cache (catalog-wide): %d entries, %d hits, %d misses, %d evictions, %d invalidations"
        p.Cal_db.Qplan.size p.Cal_db.Qplan.hits p.Cal_db.Qplan.misses
        p.Cal_db.Qplan.evictions p.Cal_db.Qplan.invalidations;
      (let batches, rules = Cal_rules.Manager.parallel_stats t.manager in
       Printf.sprintf "parallel: %d domains, %d next-fire batches (%d rules)"
         (Cal_rules.Manager.domains t.manager)
         batches rules);
      (let cb, cf = Cal_rules.Manager.coalesce_stats t.manager in
       Printf.sprintf "shards: %d (%s), %d parallel steps; coalesced: %d batches (%d firings)"
         (Cal_rules.Manager.shards t.manager)
         (match Cal_rules.Manager.pending_kind t.manager with
         | `Wheel -> "wheel"
         | `Heap -> "heap")
         (Cal_rules.Manager.shard_par_steps t.manager)
         cb cf);
      Printf.sprintf "periodic: %d of %d rules probed closed-form (unbounded horizon)"
        (Cal_rules.Manager.periodic_rules t.manager)
        (List.length (Cal_rules.Manager.rule_names t.manager));
    ]
    ^
    match t.journal with
    | None -> ""
    | Some j ->
      let records = Journal.appended j and flushes = Journal.flushes j in
      Printf.sprintf "\njournal: %d records / %d flushes (%.1fx amortization), policy %s"
        records flushes
        (if flushes = 0 then 1.0 else float_of_int records /. float_of_int flushes)
        (Journal.policy_name (Journal.policy j))

(** Civil date of a day chronon in this session. *)
let date_of_day t c = Unit_system.date_of_chronon ~epoch:t.ctx.Context.epoch Granularity.Days c

let day_of_date t d = Unit_system.chronon_of_date ~epoch:t.ctx.Context.epoch Granularity.Days d
