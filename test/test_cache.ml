(* Unit tests for the session-level materialization cache: LRU order,
   capacity-0 pass-through, dependency invalidation (including end-to-end
   through Env rebinding), and the hit/miss counters against a scripted
   access pattern; and differential properties for the resolved-day memo
   behind [Session.resolve_days]. *)

open Cal_lang

let check = Alcotest.(check (list string))
let check_int = Alcotest.(check int)

let fresh ?(capacity = 3) () = Cal_cache.create ~capacity ()

let add c key v = Cal_cache.add c ~key ~deps:[] v

(* --- LRU mechanics ---------------------------------------------------- *)

let test_lru_eviction_order () =
  let c = fresh ~capacity:2 () in
  add c "a" 1;
  add c "b" 2;
  check "MRU first" [ "b"; "a" ] (Cal_cache.keys c);
  add c "c" 3;
  (* capacity 2: the least recently used ("a") is gone *)
  check "a evicted" [ "c"; "b" ] (Cal_cache.keys c);
  check_int "eviction counted" 1 (Cal_cache.stats c).Cal_cache.evictions;
  (* touching "b" promotes it, so the next insertion evicts "c" *)
  (match Cal_cache.find c "b" with
  | Some 2 -> ()
  | _ -> Alcotest.fail "expected hit on b");
  add c "d" 4;
  check "c evicted after b promoted" [ "d"; "b" ] (Cal_cache.keys c)

let test_replace_does_not_grow () =
  let c = fresh ~capacity:2 () in
  add c "a" 1;
  add c "a" 10;
  check_int "one entry" 1 (Cal_cache.length c);
  (match Cal_cache.find c "a" with
  | Some 10 -> ()
  | _ -> Alcotest.fail "replacement value visible");
  check_int "two insertions" 2 (Cal_cache.stats c).Cal_cache.insertions

let test_peek_does_not_promote () =
  let c = fresh ~capacity:2 () in
  add c "a" 1;
  add c "b" 2;
  (match Cal_cache.peek c "a" with
  | Some 1 -> ()
  | _ -> Alcotest.fail "peek sees a");
  let s = Cal_cache.stats c in
  check_int "peek counts no hit" 0 s.Cal_cache.hits;
  (* "a" was peeked, not promoted: still LRU, still first out *)
  add c "c" 3;
  check "a still evicted first" [ "c"; "b" ] (Cal_cache.keys c)

let test_capacity_zero_pass_through () =
  let c = fresh ~capacity:0 () in
  add c "a" 1;
  check_int "nothing stored" 0 (Cal_cache.length c);
  (match Cal_cache.find c "a" with
  | None -> ()
  | Some _ -> Alcotest.fail "capacity 0 must never hit");
  let s = Cal_cache.stats c in
  check_int "no hits counted" 0 s.Cal_cache.hits;
  check_int "no misses counted" 0 s.Cal_cache.misses;
  check_int "no insertions counted" 0 s.Cal_cache.insertions

let test_negative_capacity_rejected () =
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Cal_cache.create: negative capacity") (fun () ->
      ignore (Cal_cache.create ~capacity:(-1) ()))

let test_set_capacity_shrinks () =
  let c = fresh ~capacity:4 () in
  List.iter (fun (k, v) -> add c k v) [ ("a", 1); ("b", 2); ("c", 3); ("d", 4) ];
  Cal_cache.set_capacity c 2;
  check "LRU half evicted" [ "d"; "c" ] (Cal_cache.keys c);
  Cal_cache.set_capacity c 0;
  check_int "capacity 0 clears" 0 (Cal_cache.length c)

(* --- counters vs a scripted access pattern ---------------------------- *)

let test_counters_scripted () =
  let c = fresh ~capacity:2 () in
  let touch k =
    match Cal_cache.find c k with None -> add c k 0 | Some _ -> ()
  in
  (* a m, b m, a h, c m (evicts b), b m (evicts a), b h, b h *)
  List.iter touch [ "a"; "b"; "a"; "c"; "b"; "b"; "b" ];
  let s = Cal_cache.stats c in
  check_int "hits" 3 s.Cal_cache.hits;
  check_int "misses" 4 s.Cal_cache.misses;
  check_int "evictions" 2 s.Cal_cache.evictions;
  check_int "insertions" 4 s.Cal_cache.insertions;
  Alcotest.(check (float 1e-9)) "hit rate" (3. /. 7.) (Cal_cache.hit_rate c)

(* --- dependency invalidation ------------------------------------------ *)

let test_invalidate_dep () =
  let c = fresh ~capacity:8 () in
  Cal_cache.add c ~key:"k1" ~deps:[ "DAYS" ] 1;
  Cal_cache.add c ~key:"k2" ~deps:[ "DAYS"; "HOLIDAYS" ] 2;
  Cal_cache.add c ~key:"k3" ~deps:[ "WEEKS" ] 3;
  check_int "two dropped" 2 (Cal_cache.invalidate_dep c "DAYS");
  check "only k3 remains" [ "k3" ] (Cal_cache.keys c);
  check_int "invalidations counted" 2 (Cal_cache.stats c).Cal_cache.invalidations;
  check_int "no-op invalidation" 0 (Cal_cache.invalidate_dep c "DAYS")

(* --- end-to-end through the evaluator --------------------------------- *)

let make_ctx ?(cache_capacity = 64) () =
  let env = Env.create () in
  Env.define_stored env ~name:"HOLIDAYS" ~granularity:Granularity.Days
    (Interval_set.of_pairs [ (1, 1); (50, 52) ]);
  Context.create ~epoch:(Civil.make 1988 1 1)
    ~lifespan:(Civil.make 1988 1 1, Civil.make 1989 12 31)
    ~cache_capacity ~env ()

let parse s =
  match Parser.expr s with Ok e -> e | Error e -> Alcotest.fail e

let test_second_eval_hits () =
  let ctx = make_ctx () in
  let e = parse "[1]/DAYS:during:WEEKS" in
  let cal1, s1 = Interp.eval_expr_cached ctx e in
  Alcotest.(check bool) "first eval generates" true (s1.Interp.gen_calls > 0);
  let cal2, s2 = Interp.eval_expr_cached ctx e in
  Alcotest.(check bool) "calendars equal" true (Calendar.equal cal1 cal2);
  check_int "no generation on second eval" 0 s2.Interp.gen_calls;
  Alcotest.(check bool) "hit counted" true (s2.Interp.cache_hits > 0)

let test_subexpression_shared_across_exprs () =
  let ctx = make_ctx () in
  let _ = Interp.eval_expr_cached ctx (parse "[1]/DAYS:during:WEEKS") in
  (* Different top-level expression, same sub-expression granularities and
     default window: DAYS and WEEKS materializations are reused. *)
  let _, s = Interp.eval_expr_cached ctx (parse "[-1]/DAYS:during:WEEKS") in
  check_int "leaves generated once across expressions" 0 s.Interp.gen_calls;
  Alcotest.(check bool) "sub-expressions hit" true (s.Interp.cache_hits >= 1)

let test_env_rebind_invalidates () =
  let ctx = make_ctx () in
  let e = parse "HOLIDAYS + [1]/DAYS:during:MONTHS" in
  let cal1, _ = Interp.eval_expr_cached ctx e in
  let _, warm = Interp.eval_expr_cached ctx e in
  check_int "warm run fully cached" 0 warm.Interp.gen_calls;
  (* Rebind HOLIDAYS: every entry depending on it must be recomputed and
     reflect the new values. *)
  Env.define_stored ctx.Context.env ~name:"HOLIDAYS" ~granularity:Granularity.Days
    (Interval_set.of_pairs [ (100, 101) ]);
  let cal2, after = Interp.eval_expr_cached ctx e in
  Alcotest.(check bool) "stale value not served" false (Calendar.equal cal1 cal2);
  Alcotest.(check bool) "holiday entries recomputed" true
    (after.Interp.cache_misses > 0);
  Alcotest.(check bool) "invalidations recorded" true
    ((Cal_cache.stats ctx.Context.cache).Cal_cache.invalidations > 0);
  (* The DAYS/MONTHS-only sub-expression did not depend on HOLIDAYS and
     survived: no generate calls were needed. *)
  check_int "independent entries survive" 0 after.Interp.gen_calls

let test_today_uncacheable () =
  let env = Env.create () in
  let clock = Clock.create () in
  let ctx =
    Context.create ~epoch:(Civil.make 1988 1 1)
      ~lifespan:(Civil.make 1988 1 1, Civil.make 1989 12 31)
      ~clock ~cache_capacity:64 ~env ()
  in
  let e = parse "today" in
  let _, s1 = Interp.eval_expr_cached ctx e in
  let _, s2 = Interp.eval_expr_cached ctx e in
  check_int "clock-dependent exprs never cached" 0
    (s1.Interp.cache_misses + s2.Interp.cache_misses + s1.Interp.cache_hits
   + s2.Interp.cache_hits);
  check_int "nothing stored" 0 (Cal_cache.length ctx.Context.cache)

let test_capacity_zero_is_naive () =
  let ctx = make_ctx ~cache_capacity:0 () in
  let e = parse "[1]/DAYS:during:WEEKS" in
  let cal_n, sn = Interp.eval_expr_naive ctx e in
  let cal_c, sc = Interp.eval_expr_cached ctx e in
  Alcotest.(check bool) "same value" true (Calendar.equal cal_n cal_c);
  check_int "same generate calls" sn.Interp.gen_calls sc.Interp.gen_calls;
  check_int "no cache traffic" 0 (sc.Interp.cache_hits + sc.Interp.cache_misses)

let test_planned_shares_cache () =
  let ctx = make_ctx () in
  let e = parse "[1]/DAYS:during:WEEKS" in
  let _, s1 = Interp.eval_expr_planned ctx e in
  Alcotest.(check bool) "first planned run generates" true (s1.Interp.gen_calls > 0);
  let _, s2 = Interp.eval_expr_planned ctx e in
  check_int "plan reuses materializations" 0 s2.Interp.gen_calls;
  Alcotest.(check bool) "plan cache hits" true (s2.Interp.cache_hits > 0)

(* --- resolved-day memo (Session.resolve_days) ---------------------------

   A memoized resolve must equal an uncached one: a context with the
   memo and cache off (capacity 0) sharing the session's environment and
   clock, so both see every redefinition and every [advance]. *)

module Session = Calrules.Session

let memo_epoch = Civil.make 1988 1 1
let memo_lifespan = (Civil.make 1988 1 1, Civil.make 1989 12 31)

let memo_session () =
  let s = Session.create ~epoch:memo_epoch ~lifespan:memo_lifespan ~cache_capacity:64 () in
  Session.define_stored_calendar s ~name:"HOLIDAYS" [ (1, 1); (46, 47); (359, 360) ];
  let define name script =
    match Session.define_calendar s ~name ~script with Ok () -> () | Error e -> failwith e
  in
  define "TUESDAYS" "{ return ([3]/DAYS:during:WEEKS); }";
  define "BIZ" "{ return ([1..5]/DAYS:during:WEEKS - HOLIDAYS); }";
  let ctx = s.Session.ctx in
  let oracle =
    Context.create ~epoch:memo_epoch ~lifespan:memo_lifespan ?clock:ctx.Context.clock
      ~cache_capacity:0 ~env:ctx.Context.env ()
  in
  (s, oracle)

let resolve ctx src =
  match Session.resolve_days ctx src with
  | set -> Ok (Interval_set.to_pairs set)
  | exception _ -> Error ()

let memo_stats s = Cal_cache.stats s.Session.ctx.Context.resolved

(* Translatable shapes (basic calendars under selection and foreach) and
   non-translatable ones (holiday literals, stored and derived names). *)
let memo_expr_gen =
  let open QCheck2.Gen in
  let ident =
    oneofl [ "DAYS"; "WEEKS"; "MONTHS"; "YEARS"; "HOLIDAYS"; "TUESDAYS"; "BIZ"; "days"; "Weeks" ]
  in
  let lit =
    map
      (fun l -> Ast.Lit (List.map (fun (a, b) -> (min a b, max a b)) l))
      (list_size (int_range 1 4) (pair (int_range 1 700) (int_range 1 700)))
  in
  let atom =
    oneof
      [
        map (fun i -> Ast.Nth i) (oneofl [ 1; 2; 3; 5; -1 ]);
        return Ast.Last;
        map2 (fun a b -> Ast.Range (min a b, max a b)) (int_range 1 4) (int_range 1 4);
      ]
  in
  sized_size (int_range 0 4)
  @@ fix (fun self n ->
         let base = oneof [ map (fun n -> Ast.Ident n) ident; lit ] in
         if n <= 0 then base
         else
           oneof
             [
               base;
               map2 (fun a b -> Ast.Union (a, b)) (self (n / 2)) (self (n / 2));
               map2 (fun a b -> Ast.Diff (a, b)) (self (n / 2)) (self (n / 2));
               map3
                 (fun (strict, op) lhs rhs -> Ast.Foreach { strict; op; lhs; rhs })
                 (pair bool (oneofl Listop.all))
                 (self (n / 2)) (self (n / 2));
               map2
                 (fun atoms inner -> Ast.Select (Ast.Index atoms, inner))
                 (list_size (int_range 1 2) atom) (self (n - 1));
             ])

let src = Pretty.expr_to_string

(* One session shared by every case, so entries of earlier expressions
   sit in the memo and a key collision would surface. The respelling
   [e + e] canonicalizes to [e]'s key and must be served its entry. *)
let memo_matches_uncached =
  let s, oracle = memo_session () in
  let ctx = s.Session.ctx in
  QCheck2.Test.make ~name:"memoized resolve_days = uncached, first and repeated calls" ~count:300
    ~print:src memo_expr_gen (fun e ->
      let expected = resolve oracle (src e) in
      let first = resolve ctx (src e) in
      let hits = (memo_stats s).Cal_cache.hits in
      let again = resolve ctx (src e) in
      let respelled = resolve ctx (src (Ast.Union (e, e))) in
      let cacheable = Result.is_ok first && Canon.deps ctx.Context.env e <> None in
      first = expected && again = expected
      && respelled = resolve oracle (src (Ast.Union (e, e)))
      && ((not cacheable) || (memo_stats s).Cal_cache.hits = hits + 2))

type memo_step =
  | Resolve of Ast.expr
  | Holidays of (int * int) list  (** rebind the stored calendar *)
  | Tuesdays of int  (** rebind the derived calendar to another weekday *)
  | Define of int  (** bind a fresh name, then resolve an expression using it *)
  | Advance of int

let print_step = function
  | Resolve e -> "resolve " ^ src e
  | Holidays l ->
    "holidays " ^ String.concat "," (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) l)
  | Tuesdays d -> Printf.sprintf "tuesdays := weekday %d" d
  | Define i -> Printf.sprintf "define X%d" i
  | Advance d -> Printf.sprintf "advance %d" d

let step_gen =
  let open QCheck2.Gen in
  frequency
    [
      (5, map (fun e -> Resolve e) memo_expr_gen);
      ( 2,
        map
          (fun l -> Holidays (List.map (fun (a, w) -> (a, a + w)) l))
          (list_size (int_range 0 4) (pair (int_range 1 700) (int_range 0 3))) );
      (2, map (fun d -> Tuesdays d) (int_range 1 7));
      (1, map (fun i -> Define i) (int_range 0 3));
      (1, map (fun d -> Advance d) (int_range 1 40));
    ]

(* Interleave resolves with rebinding of names the expressions use
   (directly and through BIZ's script), first definitions of names that
   were unbound, and clock moves; every resolve must match the oracle. *)
let memo_invalidation =
  QCheck2.Test.make ~name:"memo invalidated by interleaved redefinitions" ~count:120
    ~print:(fun steps -> String.concat "; " (List.map print_step steps))
    QCheck2.Gen.(list_size (int_range 1 14) step_gen)
    (fun steps ->
      let s, oracle = memo_session () in
      let ctx = s.Session.ctx in
      let agree e = resolve ctx (src e) = resolve oracle (src e) in
      List.for_all
        (function
          | Resolve e -> agree e && agree e
          | Holidays l ->
            Session.define_stored_calendar s ~name:"HOLIDAYS" l;
            true
          | Tuesdays d ->
            Result.is_ok
              (Env.define_script ctx.Context.env ~name:"TUESDAYS"
                 ~source:(Printf.sprintf "{ return ([%d]/DAYS:during:WEEKS); }" d))
          | Define i ->
            let name = Printf.sprintf "X%d" i in
            let e = Ast.Union (Ast.Ident name, Ast.Ident "TUESDAYS") in
            let before = agree e in
            ignore
              (Env.define_script ctx.Context.env ~name
                 ~source:(Printf.sprintf "{ return ([%d]/DAYS:during:MONTHS); }" (i + 1)));
            before && agree e && agree e
          | Advance d ->
            Session.advance_days s d;
            true)
        steps)

(* [today]-relative expressions are never stored, so each resolve after
   an [advance] sees the new day. *)
let memo_today_fresh =
  QCheck2.Test.make ~name:"today-relative resolve_days never stale after advance" ~count:100
    ~print:(fun (e, shape, days) -> Printf.sprintf "%s (shape %d), advance %s" (src e) shape
        (String.concat "," (List.map string_of_int days)))
    QCheck2.Gen.(triple memo_expr_gen (int_range 0 2) (list_size (int_range 1 4) (int_range 1 60)))
    (fun (e, shape, days) ->
      let s, oracle = memo_session () in
      let ctx = s.Session.ctx in
      let today = Ast.Ident "today" in
      let e =
        match shape with
        | 0 -> Ast.Union (today, e)
        | 1 -> Ast.Diff (e, today)
        | _ -> Ast.Foreach { strict = false; op = Listop.During; lhs = today; rhs = e }
      in
      let stored = Cal_cache.length ctx.Context.resolved in
      let fresh () =
        resolve ctx (src e) = resolve oracle (src e)
        && Cal_cache.length ctx.Context.resolved = stored
      in
      fresh ()
      && List.for_all
           (fun d ->
             Session.advance_days s d;
             fresh ())
           days)

(* calendar_contains in a where clause resolves per row; the memo turns
   that into one evaluation and then hits. *)
let test_calendar_contains_resolves_once () =
  let s, _ = memo_session () in
  let exec q = match Session.query s q with Ok r -> r | Error e -> Alcotest.fail e in
  let run q =
    match exec q with Cal_db.Exec.Rows { rows; _ } -> rows | _ -> Alcotest.fail "expected rows"
  in
  ignore (exec "create table ev (day chronon valid, n int)");
  ignore (exec "create index on ev (day)");
  let rows = 3000 in
  let dated = ref 0 in
  for i = 0 to rows - 1 do
    if i mod 97 = 0 then ignore (exec (Printf.sprintf "append ev (n = %d)" i))
    else begin
      incr dated;
      ignore (exec (Printf.sprintf "append ev (day = @%d, n = %d)" (1 + (i * 37 mod 730)) i))
    end
  done;
  let cal = "[1..5]/DAYS:during:WEEKS - HOLIDAYS" in
  let before = memo_stats s in
  let misses0 = before.Cal_cache.misses and hits0 = before.Cal_cache.hits in
  let by_where =
    run (Printf.sprintf "retrieve (ev.day, ev.n) from ev where calendar_contains('%s', ev.day)" cal)
  in
  let st = memo_stats s in
  check_int "one miss for the expression" (misses0 + 1) st.Cal_cache.misses;
  check_int "then only hits, one per dated row" (hits0 + !dated - 1) st.Cal_cache.hits;
  let by_on = run (Printf.sprintf "retrieve (ev.day, ev.n) from ev on \"%s\"" cal) in
  Alcotest.(check bool) "some rows qualify" true (List.length by_on > rows / 2);
  Alcotest.(check bool) "same rows as the on clause" true
    (List.length by_where = List.length by_on
    && List.for_all2 (fun a b -> Array.for_all2 Cal_db.Value.equal a b) by_where by_on);
  check_int "the on clause hits too" (misses0 + 1) (memo_stats s).Cal_cache.misses

let () =
  Alcotest.run "cal_cache"
    [
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "replace in place" `Quick test_replace_does_not_grow;
          Alcotest.test_case "peek neutral" `Quick test_peek_does_not_promote;
          Alcotest.test_case "capacity 0 pass-through" `Quick test_capacity_zero_pass_through;
          Alcotest.test_case "negative capacity" `Quick test_negative_capacity_rejected;
          Alcotest.test_case "set_capacity shrinks" `Quick test_set_capacity_shrinks;
        ] );
      ( "counters",
        [
          Alcotest.test_case "scripted access pattern" `Quick test_counters_scripted;
          Alcotest.test_case "invalidate_dep" `Quick test_invalidate_dep;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "second eval hits" `Quick test_second_eval_hits;
          Alcotest.test_case "shared sub-expressions" `Quick test_subexpression_shared_across_exprs;
          Alcotest.test_case "env rebind invalidates" `Quick test_env_rebind_invalidates;
          Alcotest.test_case "today uncacheable" `Quick test_today_uncacheable;
          Alcotest.test_case "capacity 0 = naive" `Quick test_capacity_zero_is_naive;
          Alcotest.test_case "planned shares cache" `Quick test_planned_shares_cache;
        ] );
      ( "resolved-day memo",
        List.map QCheck_alcotest.to_alcotest
          [ memo_matches_uncached; memo_invalidation; memo_today_fresh ]
        @ [
            Alcotest.test_case "calendar_contains resolves once" `Quick
              test_calendar_contains_resolves_once;
          ] );
    ]
