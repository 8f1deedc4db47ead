(* Tests for the calendar expression language: lexer, parser, granularity
   analysis, factorization (paper Examples 1 and 2), planner window
   bounding/CSE, and interpreter (the three scripts of section 3.3). *)

open Cal_lang

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let cal_testable = Alcotest.testable Calendar.pp Calendar.equal
let check_cal = Alcotest.check cal_testable

let epoch93 = Civil.make 1993 1 1

(* A context with epoch Jan 1 1993 and a 40-year lifespan, holidays on
   Jan 31 and "Mar 30/31" (days 89 and 90) plus day 31, and business days
   excluding those holidays — the EMP-DAYS setting from section 3.3. *)
let make_ctx ?clock () =
  let env = Env.create () in
  let holidays = Interval_set.of_pairs [ (31, 31); (89, 89); (90, 90) ] in
  Env.define_stored env ~name:"HOLIDAYS" ~granularity:Granularity.Days holidays;
  let bus_days =
    Interval_set.of_pairs
      (List.filter_map
         (fun i -> if List.mem i [ 31; 89; 90 ] then None else Some (i, i))
         (List.init 365 (fun i -> i + 1)))
  in
  Env.define_stored env ~name:"AM_BUS_DAYS" ~granularity:Granularity.Days bus_days;
  let def name source =
    match Env.define_script env ~name ~source with
    | Ok () -> ()
    | Error e -> Alcotest.failf "bad definition %s: %s" name e
  in
  def "Mondays" "{ return ([1]/DAYS:during:WEEKS); }";
  def "Fridays" "{ return ([5]/DAYS:during:WEEKS); }";
  def "Januarys" "{ return ([1]/MONTHS:during:YEARS); }";
  def "Third_Weeks" "{ return ([3]/WEEKS:overlaps:MONTHS); }";
  Context.create ~epoch:epoch93 ~lifespan:(Civil.make 1993 1 1, Civil.make 2032 12 31)
    ?clock ~env ()

(* ------------------------------------------------------------------ *)
(* Lexer *)

let test_lexer_tokens () =
  let toks = List.map fst (Lexer.tokenize "[2]/DAYS:during:WEEKS") in
  Alcotest.(check int) "token count (incl. EOF)" 10 (List.length toks);
  check_bool "starts with [" true (List.hd toks = Lexer.LBRACKET);
  let toks = List.map fst (Lexer.tokenize "a <= b < c /* comment */ \"str\" 1..4") in
  check_bool "le token" true (List.mem Lexer.LE toks);
  check_bool "lt token" true (List.mem Lexer.LT toks);
  check_bool "string token" true (List.mem (Lexer.STRING "str") toks);
  check_bool "dotdot token" true (List.mem Lexer.DOTDOT toks)

let test_lexer_comments_and_errors () =
  check_int "comment stripped" 2 (List.length (Lexer.tokenize "x /* nested /* ok */ yes */"));
  (match Lexer.tokenize "x /* oops" with
  | _ -> Alcotest.fail "expected lex error for unterminated comment"
  | exception Lexer.Lex_error ("unterminated comment", _) -> ());
  (match Lexer.tokenize "x @ y" with
  | _ -> Alcotest.fail "expected lex error"
  | exception Lexer.Lex_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Parser *)

let parse s =
  match Parser.expr s with Ok e -> e | Error e -> Alcotest.failf "parse failed: %s" e

let test_parser_selection_binds_loose () =
  (* [3]/WEEKS:overlaps:MONTHS = [3]/(WEEKS:overlaps:MONTHS) *)
  match parse "[3]/WEEKS:overlaps:MONTHS" with
  | Ast.Select (Ast.Index [ Ast.Nth 3 ], Ast.Foreach { op = Listop.Overlaps; _ }) -> ()
  | e -> Alcotest.failf "unexpected parse: %s" (Pretty.expr_to_string e)

let test_parser_right_assoc_chain () =
  match parse "Mondays:during:Januarys:during:1993/YEARS" with
  | Ast.Foreach
      {
        op = Listop.During;
        lhs = Ast.Ident "Mondays";
        rhs =
          Ast.Foreach
            {
              op = Listop.During;
              lhs = Ast.Ident "Januarys";
              rhs = Ast.Select (Ast.Label 1993, Ast.Ident "YEARS");
              _;
            };
        _;
      } ->
    ()
  | e -> Alcotest.failf "unexpected parse: %s" (Pretty.expr_to_string e)

let test_parser_setops_left_assoc () =
  match parse "A - B + C" with
  | Ast.Union (Ast.Diff (Ast.Ident "A", Ast.Ident "B"), Ast.Ident "C") -> ()
  | e -> Alcotest.failf "unexpected parse: %s" (Pretty.expr_to_string e)

let test_parser_relaxed_and_literals () =
  (match parse "WEEKS.overlaps.Jan_1993" with
  | Ast.Foreach { strict = false; op = Listop.Overlaps; _ } -> ()
  | _ -> Alcotest.fail "expected relaxed foreach");
  match parse "{(1,31),(32,59)}" with
  | Ast.Lit [ (1, 31); (32, 59) ] -> ()
  | _ -> Alcotest.fail "expected literal"

let test_parser_selector_forms () =
  (match parse "[n]/DAYS" with
  | Ast.Select (Ast.Index [ Ast.Last ], _) -> ()
  | _ -> Alcotest.fail "[n]");
  (match parse "[-7]/DAYS" with
  | Ast.Select (Ast.Index [ Ast.Nth (-7) ], _) -> ()
  | _ -> Alcotest.fail "[-7]");
  (match parse "[1,3,5]/DAYS" with
  | Ast.Select (Ast.Index [ Ast.Nth 1; Ast.Nth 3; Ast.Nth 5 ], _) -> ()
  | _ -> Alcotest.fail "[1,3,5]");
  match parse "[2..4]/DAYS" with
  | Ast.Select (Ast.Index [ Ast.Range (2, 4) ], _) -> ()
  | _ -> Alcotest.fail "[2..4]"

let emp_days_script =
  {|{LDOM = [n]/DAYS:during:MONTHS;
     LDOM_HOL = LDOM:intersects:HOLIDAYS;
     LAST_BUS_DAY = [n]/AM_BUS_DAYS:<:LDOM_HOL;
     return (LDOM - LDOM_HOL + LAST_BUS_DAY);}|}

let test_parser_scripts () =
  (match Parser.script emp_days_script with
  | Ok [ Ast.Assign _; Ast.Assign _; Ast.Assign _; Ast.Return (Ast.Rexpr _) ] -> ()
  | Ok _ -> Alcotest.fail "unexpected script shape"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Parser.script "{ if (A:intersects:B) return (C); else return (D); }" with
  | Ok [ Ast.If (_, [ Ast.Return _ ], [ Ast.Return _ ]) ] -> ()
  | Ok _ -> Alcotest.fail "unexpected if shape"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  match Parser.script {|{ while (today:<:temp2) ; return ("LAST TRADING DAY"); }|} with
  | Ok [ Ast.While (_, []); Ast.Return (Ast.Rstring "LAST TRADING DAY") ] -> ()
  | Ok _ -> Alcotest.fail "unexpected while shape"
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_parser_errors () =
  check_bool "unbalanced" true (Result.is_error (Parser.expr "[3/DAYS"));
  check_bool "missing rhs" true (Result.is_error (Parser.expr "A:during:"));
  check_bool "bad op" true (Result.is_error (Parser.expr "A:nonsense:B"));
  check_bool "trailing garbage" true (Result.is_error (Parser.expr "A B"))

(* Pretty-print / reparse roundtrip on random expressions. *)
let expr_gen =
  let open QCheck2.Gen in
  let ident = oneofl [ "DAYS"; "WEEKS"; "MONTHS"; "YEARS"; "HOLIDAYS"; "Foo_1" ] in
  let atom =
    oneof
      [
        map (fun n -> Ast.Ident n) ident;
        map (fun l -> Ast.Lit (List.map (fun (a, b) -> (min a b, max a b)) l))
          (list_size (int_range 1 3) (pair (int_range 1 50) (int_range 1 50)));
      ]
  in
  let sel =
    oneof
      [
        map (fun i -> Ast.Index [ Ast.Nth i ]) (int_range 1 5);
        return (Ast.Index [ Ast.Last ]);
        map (fun (a, b) -> Ast.Index [ Ast.Range (min a b, max a b) ]) (pair (int_range 1 5) (int_range 1 5));
        map (fun y -> Ast.Label y) (int_range 1990 2000);
      ]
  in
  let op = oneofl [ Listop.Overlaps; Listop.During; Listop.Before; Listop.Le; Listop.Meets ] in
  fix
    (fun self depth ->
      if depth = 0 then atom
      else
        frequency
          [
            (2, atom);
            (2, map2 (fun s e -> Ast.Select (s, e)) sel (self (depth - 1)));
            ( 3,
              map2
                (fun (strict, op) (lhs, rhs) -> Ast.Foreach { strict; op; lhs; rhs })
                (pair bool op)
                (pair atom (self (depth - 1))) );
            (1, map2 (fun a b -> Ast.Union (a, b)) (self (depth - 1)) (self (depth - 1)));
            (1, map2 (fun a b -> Ast.Diff (a, b)) (self (depth - 1)) (self (depth - 1)));
            ( 1,
              map2
                (fun counts arg -> Ast.Calop { counts; arg })
                (list_size (int_range 1 3) (int_range 1 9))
                (self (depth - 1)) );
          ])
    3

let prop_pretty_reparse =
  QCheck2.Test.make ~name:"pretty-print then reparse is identity" ~count:500
    ~print:(fun e -> Pretty.expr_to_string e)
    expr_gen
    (fun e ->
      match Parser.expr (Pretty.expr_to_string e) with
      | Ok e' -> Ast.equal_expr e e'
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Granularity analysis *)

let test_granularity () =
  let ctx = make_ctx () in
  let env = ctx.Context.env in
  let g e = Gran.of_expr env (parse e) in
  check_bool "weeks chain keeps lhs granularity" true
    (g "WEEKS:during:MONTHS" = Some Granularity.Weeks);
  check_bool "selection preserves" true
    (g "[3]/WEEKS:overlaps:MONTHS" = Some Granularity.Weeks);
  check_bool "derived mondays are days" true (g "Mondays" = Some Granularity.Days);
  check_bool "label keeps operand" true (g "1993/YEARS" = Some Granularity.Years);
  check_bool "finest of mixed expr" true
    (Gran.finest_of_expr env (parse "Mondays:during:Januarys:during:1993/YEARS")
     = Granularity.Days);
  check_bool "finest defaults to days" true
    (Gran.finest_of_expr env (parse "{(1,2)}") = Granularity.Days)

(* ------------------------------------------------------------------ *)
(* Factorization: paper Examples 1 and 2 *)

let test_factorize_example1 () =
  let ctx = make_ctx () in
  let e = parse "Mondays:during:Januarys:during:1993/YEARS" in
  let f = Factorize.factorize ctx.Context.env e in
  (* Expected: ([1]/DAYS:during:WEEKS):during:[1]/MONTHS:during:1993/YEARS *)
  check_str "factorized form"
    "([1]/DAYS:during:WEEKS):during:[1]/MONTHS:during:1993/YEARS"
    (Pretty.expr_to_string f)

let test_factorize_example2 () =
  let ctx = make_ctx () in
  let e = parse "Third_Weeks:during:Januarys:during:1993/YEARS" in
  let f = Factorize.factorize ctx.Context.env e in
  check_str "factorized form" "[3]/WEEKS:overlaps:[1]/MONTHS:during:1993/YEARS"
    (Pretty.expr_to_string f)

let test_factorize_requires_same_granularity () =
  let ctx = make_ctx () in
  (* WEEKS vs MONTHS granularity differ: no factorization of the outer
     during (Example 1's "can't be factorized any further"). *)
  let e = parse "(DAYS:during:WEEKS):during:([1]/MONTHS:during:1993/YEARS)" in
  let f = Factorize.factorize ctx.Context.env e in
  match f with
  | Ast.Foreach { lhs = Ast.Foreach { rhs = Ast.Ident "WEEKS"; _ }; _ } -> ()
  | _ -> Alcotest.failf "should not have factorized: %s" (Pretty.expr_to_string f)

let test_factorize_cycle_detection () =
  let env = Env.create () in
  (match Env.define_script env ~name:"A" ~source:"{ return (B); }" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Env.define_script env ~name:"B" ~source:"{ return (A:during:YEARS); }" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Factorize.factorize env (parse "A") with
  | _ -> Alcotest.fail "expected cycle error"
  | exception Factorize.Cyclic_definition _ -> ()

let test_inline_opaque_scripts_kept () =
  let env = Env.create () in
  (match
     Env.define_script env ~name:"Cond"
       ~source:"{ if (DAYS:during:WEEKS) return (DAYS); else return (WEEKS); }"
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Factorize.factorize env (parse "Cond:during:YEARS") with
  | Ast.Foreach { lhs = Ast.Ident "Cond"; _ } -> ()
  | e -> Alcotest.failf "opaque script should stay opaque: %s" (Pretty.expr_to_string e)

(* ------------------------------------------------------------------ *)
(* Planner *)

let gen_windows plan =
  List.filter_map
    (function Plan.Gen { window; coarse; _ } -> Some (coarse, window) | _ -> None)
    plan.Plan.instrs

let test_planner_bounds_example1 () =
  let ctx = make_ctx () in
  let plan = Planner.plan ctx (parse "Mondays:during:Januarys:during:1993/YEARS") in
  check_bool "fine is days" true (plan.Plan.fine = Granularity.Days);
  (* Every generation window must be a small neighbourhood of 1993
     (|window| well under two years), not the 40-year lifespan. *)
  List.iter
    (fun (g, w) ->
      match w with
      | None -> Alcotest.failf "%s window empty" (Granularity.to_string g)
      | Some w ->
        check_bool
          (Printf.sprintf "%s window bounded (%s)" (Granularity.to_string g)
             (Interval.to_string w))
          true
          (Interval.length w < 1600))
    (gen_windows plan)

let test_planner_label_outside_lifespan () =
  let ctx = make_ctx () in
  let plan = Planner.plan ctx (parse "Mondays:during:Januarys:during:1875/YEARS") in
  let years_window =
    List.assoc Granularity.Years (gen_windows plan)
  in
  check_bool "years window empty" true (years_window = None)

let test_planner_cse () =
  let ctx = make_ctx () in
  (* WEEKS appears twice; it must be generated once. *)
  let plan = Planner.plan ctx (parse "([1]/DAYS:during:WEEKS) + ([5]/DAYS:during:WEEKS)") in
  let gens = gen_windows plan in
  check_int "three generations (DAYS, WEEKS shared)" 2
    (List.length (List.filter (fun (g, _) -> g = Granularity.Weeks || g = Granularity.Days) gens));
  check_int "weeks generated once" 1
    (List.length (List.filter (fun (g, _) -> g = Granularity.Weeks) gens))

let test_planner_rejects_bad_label () =
  let ctx = make_ctx () in
  match Planner.plan ctx (parse "1993/MONTHS") with
  | _ -> Alcotest.fail "expected Plan_error"
  | exception Planner.Plan_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Interpretation: golden results and naive/planned agreement *)

let mondays_jan_93 = "Mondays:during:Januarys:during:1993/YEARS"

let test_eval_mondays_january () =
  let ctx = make_ctx () in
  let expected = Calendar.of_pairs [ (4, 4); (11, 11); (18, 18); (25, 25) ] in
  let planned, _ = Interp.eval_expr_planned ctx (parse mondays_jan_93) in
  check_cal "planned" expected planned;
  let naive, _ = Interp.eval_expr_naive ctx (parse mondays_jan_93) in
  check_cal "naive" expected naive

let test_eval_third_week_january () =
  let ctx = make_ctx () in
  let e = parse "Third_Weeks:during:Januarys:during:1993/YEARS" in
  let planned, _ = Interp.eval_expr_planned ctx e in
  check_cal "third week of january 1993" (Calendar.of_pairs [ (11, 17) ]) planned

let test_planned_generates_fewer () =
  let ctx = make_ctx () in
  let e = parse mondays_jan_93 in
  let _, naive_stats = Interp.eval_expr_naive ctx e in
  let _, planned_stats = Interp.eval_expr_planned ctx e in
  check_bool
    (Printf.sprintf "planned generates far fewer intervals (%d < %d / 5)"
       planned_stats.Interp.generated_intervals naive_stats.Interp.generated_intervals)
    true
    (planned_stats.Interp.generated_intervals * 5 < naive_stats.Interp.generated_intervals)

let test_emp_days_script () =
  let ctx = make_ctx () in
  let script =
    match Parser.script emp_days_script with Ok s -> s | Error e -> Alcotest.failf "%s" e
  in
  (* Bound the run to the first quarter of 1993 so the golden values match
     the paper's walk-through. *)
  match Interp.exec_script ctx ~window:(Interval.make 1 90) script with
  | Some (Interp.VCal cal), _ ->
    check_cal "EMP-DAYS first quarter"
      (Calendar.of_pairs [ (30, 30); (59, 59); (88, 88) ])
      cal
  | Some (Interp.VStr s), _ -> Alcotest.failf "unexpected string %s" s
  | None, _ -> Alcotest.fail "no return value"

(* The option-expiration script with the if clause (section 3.3). *)
let expiration_script =
  {|{temp1 = [3]/Fridays:overlaps:Expiration_Month;
     if (temp1:intersects:HOLIDAYS)
       return ([n]/AM_BUS_DAYS:<:temp1);
     else
       return (temp1);}|}

let test_expiration_script () =
  let ctx = make_ctx () in
  (* Expiration month = January 1993; third Friday is Jan 15 (day 15).
     The window reaches back before the epoch so the week containing
     Jan 1 (a Friday) is complete. *)
  Env.define_stored ctx.Context.env ~name:"Expiration_Month" ~granularity:Granularity.Days
    (Interval_set.of_pairs [ (1, 31) ]);
  let script =
    match Parser.script expiration_script with Ok s -> s | Error e -> Alcotest.failf "%s" e
  in
  (match Interp.exec_script ctx ~window:(Interval.make (-6) 60) script with
  | Some (Interp.VCal cal), _ ->
    check_cal "third friday of january" (Calendar.of_pairs [ (15, 15) ]) cal
  | _ -> Alcotest.fail "expected calendar");
  (* Now make the third Friday a holiday: expect the preceding business
     day, Jan 14. *)
  Env.define_stored ctx.Context.env ~name:"HOLIDAYS" ~granularity:Granularity.Days
    (Interval_set.of_pairs [ (15, 15) ]);
  Env.define_stored ctx.Context.env ~name:"AM_BUS_DAYS" ~granularity:Granularity.Days
    (Interval_set.of_pairs
       (List.filter_map (fun i -> if i = 15 then None else Some (i, i)) (List.init 60 (fun i -> i + 1))));
  match Interp.exec_script ctx ~window:(Interval.make (-6) 60) script with
  | Some (Interp.VCal cal), _ ->
    check_cal "preceding business day" (Calendar.of_pairs [ (14, 14) ]) cal
  | _ -> Alcotest.fail "expected calendar"

(* The last-trading-day alert with the while clause (section 3.3). *)
let alert_script =
  {|{temp1 = [n]/AM_BUS_DAYS:during:Expiration_Month;
     temp2 = [-7]/AM_BUS_DAYS:<:temp1;
     while (today:<:temp2) ;
     return ("LAST TRADING DAY");}|}

let test_alert_script_waits_then_fires () =
  let clock = Clock.create () in
  let ctx = make_ctx ~clock () in
  Env.define_stored ctx.Context.env ~name:"Expiration_Month" ~granularity:Granularity.Days
    (Interval_set.of_pairs [ (1, 31) ]);
  let script =
    match Parser.script alert_script with Ok s -> s | Error e -> Alcotest.failf "%s" e
  in
  let window = Interval.make 1 60 in
  (* Last business day of January is day 30 (31 is a holiday); the seventh
     business day preceding it is day 22 ({22..28} minus holidays = 22;
     business days 23,24,25,26,27,28,29,30 -> seventh from the end of the
     days before 30 is 22... the golden value is checked against the
     interpreter's own [-7] selection below.) *)
  (match Interp.exec_script ctx ~window script with
  | exception Interp.Waiting -> ()
  | _ -> Alcotest.fail "expected the script to wait at day 1");
  (* Advance past the trigger day and re-run: the alert fires. *)
  Clock.advance clock (40 * 86400);
  match Interp.exec_script ctx ~window script with
  | Some (Interp.VStr s), _ -> check_str "alert" "LAST TRADING DAY" s
  | _ -> Alcotest.fail "expected alert string"

let test_while_fuel () =
  let env = Env.create () in
  let ctx =
    Context.create ~epoch:epoch93 ~lifespan:(Civil.make 1993 1 1, Civil.make 1994 12 31)
      ~fuel:10 ~env ()
  in
  let script =
    match Parser.script "{ x = DAYS; while (x:during:YEARS) { x = x; } return (x); }" with
    | Ok s -> s
    | Error e -> Alcotest.failf "%s" e
  in
  match Interp.exec_script ctx ~window:(Interval.make 1 30) script with
  | exception Interp.Fuel_exhausted -> ()
  | _ -> Alcotest.fail "expected fuel exhaustion"

let test_eval_string () =
  let ctx = make_ctx () in
  (match Interp.eval_string ctx "[2]/DAYS:during:WEEKS:during:Januarys:during:1993/YEARS" with
  | Ok (Interp.VCal cal) ->
    check_cal "tuesdays of january 1993" (Calendar.of_pairs [ (5, 5); (12, 12); (19, 19); (26, 26) ]) cal
  | Ok (Interp.VStr s) -> Alcotest.failf "unexpected string %s" s
  | Error e -> Alcotest.failf "eval failed: %s" e);
  check_bool "bad input is an error" true (Result.is_error (Interp.eval_string ctx "@@@"))

(* ------------------------------------------------------------------ *)
(* Intraday granularities *)

let test_intraday_trading_hours () =
  let ctx = make_ctx () in
  (* Hours 10..16 of each day (9:00-16:00): positional selection over the
     hours during each day. Evaluated over the first two days. *)
  let e = parse "[10..16]/HOURS:during:DAYS" in
  let naive, _ = Interp.eval_expr_naive ctx ~window:(Interval.make 1 48) e in
  (* One order-1 component of hour singletons per day; coalesced pointwise
     they are the two daily trading blocks. *)
  check_int "14 trading hours" 14 (Interval_set.cardinal (Calendar.flatten naive));
  check_bool "coalesce to daily blocks" true
    (Interval_set.equal
       (Interval_set.coalesce (Calendar.flatten naive))
       (Interval_set.of_pairs [ (10, 16); (34, 40) ]));
  (* Mixing granularities: trading hours during the first week; finest
     unit is hours, weeks refine to hours. *)
  let e2 = parse "([10..16]/HOURS:during:DAYS):during:[1]/WEEKS:during:1993/YEARS" in
  let v, _ = Interp.eval_expr_planned ctx e2 in
  (* Week 1 of 1993 runs Dec 28 1992 .. Jan 3 1993 (the week containing
     Jan 1): 7 days x 7 trading hours. *)
  check_int "7x7 trading-hour blocks" 49
    (Interval_set.cardinal (Calendar.flatten v))

(* ------------------------------------------------------------------ *)
(* caloperate in the language (section 3.2's procedure as syntax) *)

let test_caloperate_parse () =
  (match parse "caloperate(MONTHS; 3)" with
  | Ast.Calop { counts = [ 3 ]; arg = Ast.Ident "MONTHS" } -> ()
  | e -> Alcotest.failf "unexpected parse: %s" (Pretty.expr_to_string e));
  (match parse "caloperate(DAYS:during:1993/YEARS; 2,3)" with
  | Ast.Calop { counts = [ 2; 3 ]; _ } -> ()
  | _ -> Alcotest.fail "circular counts");
  check_bool "zero count rejected" true (Result.is_error (Parser.expr "caloperate(MONTHS; 0)"));
  check_bool "missing semi" true (Result.is_error (Parser.expr "caloperate(MONTHS, 3)"))

let test_caloperate_quarters () =
  let ctx = make_ctx () in
  (* QUARTERS of 1993 from months, entirely in the language. *)
  let e = parse "caloperate(MONTHS:during:1993/YEARS; 3)" in
  let planned, _ = Interp.eval_expr_planned ctx e in
  (* Only MONTHS/YEARS are mentioned, so the unit is month chronons. *)
  check_cal "quarters of 1993 (month chronons)"
    (Calendar.of_pairs [ (1, 3); (4, 6); (7, 9); (10, 12) ])
    planned;
  (* Derivable calendar using it. *)
  (match Env.define_script ctx.Context.env ~name:"Quarters93"
           ~source:"{ return (caloperate(MONTHS:during:1993/YEARS; 3)); }" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s" e);
  let last_q_day = parse "[n]/DAYS:during:Quarters93" in
  let v, _ = Interp.eval_expr_planned ctx last_q_day in
  check_cal "last day of each quarter"
    (Calendar.of_pairs [ (90, 90); (181, 181); (273, 273); (365, 365) ])
    v

let test_caloperate_planned_eq_naive () =
  let ctx = make_ctx () in
  let e = parse "caloperate(MONTHS:during:1993/YEARS; 2)" in
  let naive, _ = Interp.eval_expr_naive ctx e in
  let planned, _ = Interp.eval_expr_planned ctx e in
  check_cal "two-month groups agree" naive planned

(* Random expressions: planned and naive evaluation agree.

   [lhs:op:rhs] keeps, for every interval of [rhs], the members of [lhs]
   in relation with it. Every interval the generator can produce comes
   from an atom and is at most a month long, so overlaps/during keep at
   most 31 members of an atom per interval, while before/<= may keep all
   of them: nested ordering foreachs multiply, and an unbounded product
   (DAYS:<=:MONTHS.<.DAYS:<=:DAYS is about 10^9 intervals) exhausts
   memory. The generator carries an upper bound on the intervals each
   expression yields and draws a foreach's left operand only from atoms
   that keep it within [max_intervals]; when none does, that level is
   left out. *)
let closed_expr_gen =
  let open QCheck2.Gen in
  (* members of each atom over the two-year lifespan *)
  let atoms = [ ("DAYS", 730); ("WEEKS", 106); ("MONTHS", 24); ("HOLIDAYS", 3) ] in
  let max_intervals = 4_000_000 in
  let atom = map (fun (n, size) -> (Ast.Ident n, size)) (oneofl atoms) in
  let op = oneofl [ Listop.Overlaps; Listop.During; Listop.Before; Listop.Le ] in
  let sel =
    oneof
      [
        map (fun i -> Ast.Index [ Ast.Nth i ]) (int_range 1 4);
        return (Ast.Index [ Ast.Last ]);
      ]
  in
  let foreach (rhs, n) =
    let* strict, op = pair bool op in
    let size (_, members) =
      match op with Listop.Before | Listop.Le -> members * n | _ -> min members 31 * n
    in
    match List.filter (fun a -> size a <= max_intervals) atoms with
    | [] -> return (rhs, n)
    | fits ->
      map
        (fun ((name, _) as a) -> (Ast.Foreach { strict; op; lhs = Ast.Ident name; rhs }, size a))
        (oneofl fits)
  in
  map fst
  @@ fix
       (fun self depth ->
         if depth = 0 then atom
         else
           frequency
             [
               (2, atom);
               (2, map2 (fun s (e, n) -> (Ast.Select (s, e), n)) sel (self (depth - 1)));
               (3, self (depth - 1) >>= foreach);
             ])
       3

let prop_planned_eq_naive =
  QCheck2.Test.make ~name:"planned = naive on closed expressions" ~count:150
    ~print:(fun e -> Pretty.expr_to_string e)
    closed_expr_gen
    (fun e ->
      let env = Env.create () in
      Env.define_stored env ~name:"HOLIDAYS" ~granularity:Granularity.Days
        (Interval_set.of_pairs [ (31, 31); (90, 90); (359, 359) ]);
      let ctx =
        Context.create ~epoch:epoch93
          ~lifespan:(Civil.make 1993 1 1, Civil.make 1994 12 31)
          ~env ()
      in
      let naive, _ = Interp.eval_expr_naive ctx e in
      let planned, _ = Interp.eval_expr_planned ctx e in
      Calendar.equal naive planned)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "cal_lang"
    [
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick test_lexer_tokens;
          Alcotest.test_case "comments/errors" `Quick test_lexer_comments_and_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "selection binds loose" `Quick test_parser_selection_binds_loose;
          Alcotest.test_case "right-assoc chains" `Quick test_parser_right_assoc_chain;
          Alcotest.test_case "setops left-assoc" `Quick test_parser_setops_left_assoc;
          Alcotest.test_case "relaxed + literals" `Quick test_parser_relaxed_and_literals;
          Alcotest.test_case "selector forms" `Quick test_parser_selector_forms;
          Alcotest.test_case "scripts" `Quick test_parser_scripts;
          Alcotest.test_case "errors" `Quick test_parser_errors;
        ] );
      ("granularity", [ Alcotest.test_case "analysis" `Quick test_granularity ]);
      ( "factorize",
        [
          Alcotest.test_case "example 1 (fig 2)" `Quick test_factorize_example1;
          Alcotest.test_case "example 2 (fig 3)" `Quick test_factorize_example2;
          Alcotest.test_case "granularity guard" `Quick test_factorize_requires_same_granularity;
          Alcotest.test_case "cycle detection" `Quick test_factorize_cycle_detection;
          Alcotest.test_case "opaque scripts kept" `Quick test_inline_opaque_scripts_kept;
        ] );
      ( "planner",
        [
          Alcotest.test_case "bounds example 1" `Quick test_planner_bounds_example1;
          Alcotest.test_case "label outside lifespan" `Quick test_planner_label_outside_lifespan;
          Alcotest.test_case "common subexpressions" `Quick test_planner_cse;
          Alcotest.test_case "bad label rejected" `Quick test_planner_rejects_bad_label;
        ] );
      ( "interp",
        [
          Alcotest.test_case "mondays of january 1993" `Quick test_eval_mondays_january;
          Alcotest.test_case "third week of january" `Quick test_eval_third_week_january;
          Alcotest.test_case "planned generates fewer" `Quick test_planned_generates_fewer;
          Alcotest.test_case "EMP-DAYS script" `Quick test_emp_days_script;
          Alcotest.test_case "expiration script (if)" `Quick test_expiration_script;
          Alcotest.test_case "alert script (while)" `Quick test_alert_script_waits_then_fires;
          Alcotest.test_case "while fuel" `Quick test_while_fuel;
          Alcotest.test_case "eval_string" `Quick test_eval_string;
          Alcotest.test_case "intraday trading hours" `Quick test_intraday_trading_hours;
          Alcotest.test_case "caloperate parse" `Quick test_caloperate_parse;
          Alcotest.test_case "caloperate quarters" `Quick test_caloperate_quarters;
          Alcotest.test_case "caloperate planned = naive" `Quick test_caloperate_planned_eq_naive;
        ] );
      qsuite "parser-props" [ prop_pretty_reparse ];
      qsuite "eval-props" [ prop_planned_eq_naive ];
    ]
