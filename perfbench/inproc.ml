(* In-process replays of a workload's request lines.

   [plain] runs every line through the server's own handler
   ([Protocol.handle] on a [Store] over a journaled session configured
   like [calq serve]) with no wire: its replies are the oracle the
   served replies must equal, and its timings are the untraced
   in-process latencies.

   [traced] replays the same lines through the layers' public functions
   in the order [Protocol.handle] calls them, timing each call from
   here. Nested spans give self times: a span's duration minus the
   durations of the spans it encloses. *)

open Calrules
open Cal_db
open Cal_server

let ns () = Int64.to_int (Monotonic_clock.now ())

let make_session ~journal ~policy =
  (try Sys.remove journal with Sys_error _ -> ());
  Session.open_journaled ~path:journal ~policy ~epoch:Serve.epoch ~lifespan:Serve.lifespan
    ~domains:1 ~shards:1 ~probe_strategy:`Auto ()

(* The client's view of a handler reply, as [Client.request] decodes it. *)
let client_view (reply : Protocol.reply) : Serve.reply =
  match reply.Protocol.lines with
  | [ one ] when reply.Protocol.failed = 1 && String.length one >= 4 && String.sub one 0 4 = "err "
    ->
    Error (String.sub one 4 (String.length one - 4))
  | lines -> Ok lines

let reply_bytes lines = List.fold_left (fun n l -> n + String.length l + 1) 0 lines

(* --- plain replay: the oracle ---------------------------------------- *)

type plain = {
  expected_setup : Serve.reply array;  (** set-up then warm-up lines *)
  expected : Serve.reply array;  (** the measured stream *)
  expected_final : Serve.reply array;
  times_ns : int array;  (** per measured request *)
  minor_words : float;  (** over the measured stream *)
  major_collections : int;
  digest : string;  (** state digest hash after the stream *)
}

let plain (w : Workload.t) =
  let journal = Filename.concat Serve.work_dir "oracle.journal" in
  let session = make_session ~journal ~policy:Journal.Sync_each in
  let store = Store.of_session session in
  let handle line = client_view (Protocol.handle store line) in
  let expected_setup = Array.of_list (List.map handle (w.setup @ w.warmup)) in
  Array.iteri
    (fun i r ->
      if Serve.failed r then
        failwith
          (Printf.sprintf "%s set-up line %d fails in-process: %s" w.Workload.name i
             (match r with Error e -> e | Ok l -> String.concat " / " l)))
    expected_setup;
  let n = Array.length w.stream in
  let times_ns = Array.make n 0 in
  let expected = Array.make n (Ok []) in
  let g0 = Gc.quick_stat () in
  for i = 0 to n - 1 do
    let t0 = ns () in
    let r = Protocol.handle store w.stream.(i) in
    ignore (Protocol.reply_lines r);
    times_ns.(i) <- ns () - t0;
    expected.(i) <- client_view r
  done;
  let g1 = Gc.quick_stat () in
  let expected_final = Array.of_list (List.map handle w.final_checks) in
  let digest = Store.digest store in
  Session.commit session;
  {
    expected_setup;
    expected;
    expected_final;
    times_ns;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    digest;
  }

(* --- spans ------------------------------------------------------------ *)

let tracing = ref false
let self_ns : (string, int ref) Hashtbl.t = Hashtbl.create 16
let children = ref [ ref 0 ]

let add name d =
  match Hashtbl.find_opt self_ns name with
  | Some r -> r := !r + d
  | None -> Hashtbl.replace self_ns name (ref d)

let span name f =
  if not !tracing then f ()
  else begin
    let inner = ref 0 in
    let outer = !children in
    children := inner :: outer;
    let t0 = ns () in
    let finish () =
      let d = ns () - t0 in
      children := outer;
      (match outer with p :: _ -> p := !p + d | [] -> ());
      add name (d - !inner)
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let self name = match Hashtbl.find_opt self_ns name with Some r -> !r | None -> 0

(* Work the tracer does for itself inside a request; its time is taken
   out of the request's total. *)
let excluded = "~excluded"

(* --- traced replay ---------------------------------------------------- *)

type traced = {
  replies : Serve.reply array;  (** must equal the oracle's *)
  request_ns : int array;  (** per measured request, spans on *)
  layers : (string * string * float) list;  (** per-layer metric: name, unit, value *)
}

let traced (w : Workload.t) =
  let journal = Filename.concat Serve.work_dir "traced.journal" in
  (* Manual policy plus a commit after every write batch writes the
     same bytes as the server's per-record sync, and lets the flush be
     timed apart from applying the batch. *)
  let s = make_session ~journal ~policy:Journal.Manual in
  let resolved = ref [] in
  Catalog.set_calendar_resolver s.Session.catalog (fun src ->
      let days = span "calendar.resolve" (fun () -> Session.resolve_days s.Session.ctx src) in
      resolved := days :: !resolved;
      days);
  let published = ref (Session.freeze s) in
  let st = Exec.fresh_stats () in
  let rows_read = ref 0 and bytes_out = ref 0 and advances = ref 0 and reparse_ns = ref 0 in
  let read src =
    match span "qparser.parse" (fun () -> Qparser.query src) with
    | Error e -> Error e
    | Ok (Qast.Retrieve _) ->
      let r = span "exec.read" (fun () -> Exec.run_read !published ~stats:st src) in
      (match r with Ok (Exec.Rows { rows; _ }) -> rows_read := !rows_read + List.length rows | _ -> ());
      r
    | Ok _ -> Error ("read-only: not a retrieve statement: " ^ String.trim src)
  in
  let stmt = function
    | Store.Query src -> (
      match Session.query s src with
      | r -> r
      | exception Session.Session_error e -> Error e
      | exception Journal.Journal_error e -> Error ("journal: " ^ e))
    | Store.Advance days ->
      incr advances;
      span "rules.advance" (fun () -> Session.advance_days s days);
      Ok (Exec.Msg (Printf.sprintf "advanced %d day%s" days (if days = 1 then "" else "s")))
  in
  let run line =
    span "request" (fun () ->
        let outcome =
          let parsed = span "protocol.parse" (fun () -> Protocol.parse line) in
          (* [Protocol.parse] parses every statement once. Parse them
             again right away, warm, and move that time out of the
             protocol layer into the parser; the re-parse itself is
             excluded from the request's time. *)
          span excluded (fun () ->
              List.iter
                (fun src ->
                  if Protocol.parse_advance src = None then begin
                    let t = ns () in
                    ignore (Qparser.query src);
                    reparse_ns := !reparse_ns + (ns () - t)
                  end)
                (Protocol.split_statements line));
          match parsed with
          | Error e -> `Failed e
          | Ok (Protocol.Reads srcs) -> `Done (List.map read srcs, true)
          | Ok (Protocol.Writes stmts) ->
            let results = span "store.apply" (fun () -> Session.batch s (fun () -> List.map stmt stmts)) in
            span "journal.flush" (fun () -> Session.commit s);
            published := span "store.publish" (fun () -> Session.freeze s);
            `Done (results, false)
          | Ok _ -> `Failed "meta commands are not replayed"
        in
        span "protocol.render" (fun () ->
            let reply =
              match outcome with
              | `Failed e -> { Protocol.lines = [ "err " ^ e ]; failed = 1; was_read = false }
              | `Done (outcomes, was_read) ->
                {
                  Protocol.lines = Protocol.render_outcomes outcomes;
                  failed = List.length (List.filter Result.is_error outcomes);
                  was_read;
                }
            in
            bytes_out := !bytes_out + reply_bytes (Protocol.reply_lines reply);
            reply))
  in
  List.iter (fun l -> ignore (run l)) (w.setup @ w.warmup);
  Session.commit s;
  (* Counters from here on cover the measured stream only. *)
  let cache0 = Session.cache_stats s in
  let hits0 = cache0.Cal_cache.hits and misses0 = cache0.Cal_cache.misses
  and evict0 = cache0.Cal_cache.evictions in
  let rec0, flush0 = Option.value (Session.journal_stats s) ~default:(0, 0) in
  let size0 = Serve.file_size journal in
  let probes0, _ = Cal_rules.Manager.dbcron_stats s.Session.manager in
  let firings0 = List.length (Session.firings s) in
  rows_read := 0;
  bytes_out := 0;
  advances := 0;
  resolved := [];
  let n = Array.length w.stream in
  let request_ns = Array.make n 0 in
  let replies = Array.make n (Ok []) in
  let excluded_ns = ref 0 and n_resolves = ref 0 and days = ref 0 in
  reparse_ns := 0;
  Hashtbl.reset self_ns;
  tracing := true;
  for i = 0 to n - 1 do
    let line = w.stream.(i) in
    let t0 = ns () in
    let reply = run line in
    request_ns.(i) <- ns () - t0;
    replies.(i) <- client_view reply;
    tracing := false;
    request_ns.(i) <- request_ns.(i) - (self excluded - !excluded_ns);
    excluded_ns := self excluded;
    List.iter
      (fun set ->
        incr n_resolves;
        Interval_set.iter (fun iv -> days := !days + Interval.length iv) set)
      !resolved;
    resolved := [];
    tracing := true
  done;
  tracing := false;
  Session.commit s;
  add "protocol.parse" (- !reparse_ns);
  add "qparser.parse" !reparse_ns;
  let nf = float_of_int (max 1 n) in
  let us name = float_of_int (self name) /. 1e3 /. nf in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let cache1 = Session.cache_stats s in
  let hits = cache1.Cal_cache.hits - hits0 and misses = cache1.Cal_cache.misses - misses0 in
  let rec1, flush1 = Option.value (Session.journal_stats s) ~default:(0, 0) in
  let size1 = Serve.file_size journal in
  let probes1, _ = Cal_rules.Manager.dbcron_stats s.Session.manager in
  let firings1 = List.length (Session.firings s) in
  let n_rules = List.length (Cal_rules.Manager.rule_names s.Session.manager) in
  let total = Array.fold_left ( + ) 0 request_ns in
  let attributed =
    List.fold_left (fun acc name -> acc + self name) 0
      [
        "protocol.parse"; "qparser.parse"; "calendar.resolve"; "exec.read"; "store.apply";
        "rules.advance"; "journal.flush"; "store.publish"; "protocol.render";
      ]
  in
  let layers =
    [
      ("protocol.parse_us", "us", us "protocol.parse");
      ("protocol.render_us", "us", us "protocol.render");
      ("protocol.reply_bytes", "bytes", ratio !bytes_out n);
      ("qparser.parse_us", "us", us "qparser.parse");
      ("calendar.resolve_us", "us", us "calendar.resolve");
      ("calendar.resolves_per_req", "count", ratio !n_resolves n);
      ("calendar.days_per_resolve", "days", ratio !days !n_resolves);
      ("cal_cache.hit_rate", "ratio", ratio hits (hits + misses));
      ("cal_cache.evictions", "count", float_of_int (cache1.Cal_cache.evictions - evict0));
      ("exec.read_self_us", "us", us "exec.read");
      ("exec.scanned_per_row", "ratio", ratio st.Exec.scanned !rows_read);
      ("qplan.cache_hit_rate", "ratio",
        ratio st.Exec.plan_cache_hits (st.Exec.plan_cache_hits + st.Exec.plan_cache_misses) );
      ("store.apply_us", "us", us "store.apply");
      ("store.publish_us", "us", us "store.publish");
      ("journal.flush_us", "us", us "journal.flush");
      ("journal.records_per_flush", "ratio", ratio (rec1 - rec0) (flush1 - flush0));
      ("journal.bytes_per_group", "bytes", ratio (size1 - size0) (flush1 - flush0));
      ("rules.advance_us", "us", us "rules.advance");
      ("rules.firings_per_advance", "count", ratio (firings1 - firings0) !advances);
      ("rules.probes_per_advance", "count", ratio (probes1 - probes0) !advances);
      ("rules.periodic_share", "ratio", ratio (Cal_rules.Manager.periodic_rules s.Session.manager) n_rules);
      ("other_us", "us", float_of_int (total - attributed) /. 1e3 /. nf);
      ("trace.request_us", "us", float_of_int total /. 1e3 /. nf);
    ]
  in
  { replies; request_ns; layers }

(* The served journal must recover to the oracle's state. *)
let recovered_digest () =
  let s =
    Session.recover ~path:Serve.journal ~epoch:Serve.epoch ~lifespan:Serve.lifespan ~domains:1
      ~shards:1 ~probe_strategy:`Auto ~policy:Journal.Sync_each ()
  in
  Digest.to_hex (Digest.string (Session.state_digest s))
