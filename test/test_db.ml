(* Tests for the extensible-database substrate: values/ADT registry,
   B-tree (model-based), schemas, tables with index maintenance, the
   query language, access-path selection and the valid-time on-clause. *)

open Cal_db

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Value and the ADT registry *)

type Value.ext += Point of int * int

let register_point () =
  Value.register_adt
    {
      Value.tag = "point";
      pp = (function Point (x, y) -> Some (Printf.sprintf "(%d,%d)" x y) | _ -> None);
      equal = (fun a b -> match (a, b) with Point (x1, y1), Point (x2, y2) -> Some (x1 = x2 && y1 = y2) | _ -> None);
      compare =
        Some
          (fun a b ->
            match (a, b) with
            | Point (x1, y1), Point (x2, y2) -> Some (Stdlib.compare (x1, y1) (x2, y2))
            | _ -> None);
    }

let test_value_basics () =
  check_str "pp int" "42" (Value.to_string (Value.Int 42));
  check_str "pp chronon" "@-4" (Value.to_string (Value.Chronon (-4)));
  check_bool "numeric eq across int/float" true (Value.compare (Value.Int 2) (Value.Float 2.0) = 0);
  check_bool "text order" true (Value.compare (Value.Text "a") (Value.Text "b") < 0);
  check_bool "array equal" true
    (Value.equal (Value.Array [| Value.Int 1 |]) (Value.Array [| Value.Int 1 |]))

let test_value_adt () =
  register_point ();
  let p1 = Value.Ext ("point", Point (1, 2)) in
  let p2 = Value.Ext ("point", Point (1, 2)) in
  let p3 = Value.Ext ("point", Point (3, 4)) in
  check_bool "adt equal" true (Value.equal p1 p2);
  check_bool "adt not equal" false (Value.equal p1 p3);
  check_bool "adt compare" true (Value.compare p1 p3 < 0);
  check_str "adt pp" "point:(1,2)" (Value.to_string p1);
  match Value.to_string (Value.Ext ("nosuch", Point (0, 0))) with
  | _ -> Alcotest.fail "expected Unknown_adt"
  | exception Value.Unknown_adt "nosuch" -> ()

(* ------------------------------------------------------------------ *)
(* B-tree: model-based *)

let test_btree_basic () =
  let t = Btree.create () in
  for i = 1 to 100 do
    Btree.insert t (Value.Int i) (i * 10)
  done;
  Btree.check_invariants t;
  check_int "cardinal" 100 (Btree.cardinal t);
  Alcotest.(check (list int)) "find" [ 420 ] (Btree.find t (Value.Int 42));
  Alcotest.(check (list int)) "find missing" [] (Btree.find t (Value.Int 1000));
  Btree.insert t (Value.Int 42) 9999;
  Alcotest.(check (list int)) "multimap" [ 9999; 420 ] (Btree.find t (Value.Int 42));
  check_int "cardinal unchanged by dup key" 100 (Btree.cardinal t);
  check_bool "remove one rowid" true (Btree.remove t (Value.Int 42) 9999);
  Alcotest.(check (list int)) "remaining" [ 420 ] (Btree.find t (Value.Int 42));
  check_bool "remove last rowid deletes key" true (Btree.remove t (Value.Int 42) 420);
  check_bool "gone" false (Btree.mem t (Value.Int 42));
  check_int "cardinal after delete" 99 (Btree.cardinal t);
  Btree.check_invariants t

let test_btree_range () =
  let t = Btree.create () in
  List.iter (fun i -> Btree.insert t (Value.Int i) i) [ 5; 1; 9; 3; 7; 2; 8 ];
  let collect ?lo ?hi () =
    let acc = ref [] in
    Btree.range t ?lo ?hi (fun k _ -> acc := k :: !acc);
    List.rev !acc
  in
  Alcotest.(check (list int)) "full range in order" [ 1; 2; 3; 5; 7; 8; 9 ]
    (List.map (function Value.Int i -> i | _ -> -1) (collect ()));
  Alcotest.(check (list int)) "bounded range" [ 3; 5; 7 ]
    (List.map
       (function Value.Int i -> i | _ -> -1)
       (collect ~lo:(Value.Int 3) ~hi:(Value.Int 7) ()))

let prop_btree_model =
  (* Random interleavings of insert/remove, checked against an assoc-list
     model plus structural invariants. *)
  QCheck2.Test.make ~name:"btree matches assoc-list model" ~count:100
    QCheck2.Gen.(list_size (int_range 0 400) (pair (int_range 0 60) bool))
    (fun ops ->
      let t = Btree.create () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (k, insert) ->
          let key = Value.Int k in
          if insert then begin
            let rowid = k * 1000 + List.length (Option.value ~default:[] (Hashtbl.find_opt model k)) in
            Btree.insert t key rowid;
            Hashtbl.replace model k (rowid :: Option.value ~default:[] (Hashtbl.find_opt model k))
          end
          else begin
            match Hashtbl.find_opt model k with
            | Some (rowid :: rest) ->
              ignore (Btree.remove t key rowid);
              if rest = [] then Hashtbl.remove model k else Hashtbl.replace model k rest
            | Some [] | None -> ignore (Btree.remove t key 0)
          end)
        ops;
      Btree.check_invariants t;
      Hashtbl.fold
        (fun k rowids acc ->
          acc && List.sort Int.compare (Btree.find t (Value.Int k)) = List.sort Int.compare rowids)
        model true
      && Btree.cardinal t = Hashtbl.length model)

let prop_btree_range_model =
  QCheck2.Test.make ~name:"btree range matches filtered model" ~count:100
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 200) (int_range 0 100))
        (pair (int_range 0 100) (int_range 0 100)))
    (fun (keys, (a, b)) ->
      let lo = min a b and hi = max a b in
      let t = Btree.create () in
      List.iter (fun k -> Btree.insert t (Value.Int k) k) keys;
      let got = ref [] in
      Btree.range t ~lo:(Value.Int lo) ~hi:(Value.Int hi) (fun k _ -> got := k :: !got);
      let got = List.rev_map (function Value.Int i -> i | _ -> -1) !got in
      let expected =
        List.sort_uniq Int.compare (List.filter (fun k -> k >= lo && k <= hi) keys)
      in
      List.sort Int.compare got = expected)

(* [range] on trees of three or more levels. A node holds at most 31
   keys, so two levels hold at most 31 + 32 * 31 = 1023 keys; every tree
   here keeps more than that after its removes. Removes interleave with
   inserts (every fourth step drops a random present key), so the tree
   has been rebalanced, not only split. Keys are even, so odd bounds are
   absent from the tree; some keys carry two row ids. Bounds may be
   absent on either side, fall outside the key span, or cross (lo > hi,
   an empty range). *)
let prop_btree_range_deep =
  QCheck2.Test.make ~name:"btree range on deep trees matches filtered model" ~count:40
    ~print:(fun (n, seed, qs) ->
      let b = function None -> "-" | Some x -> string_of_int x in
      Printf.sprintf "%d keys, seed %d; ranges %s" n seed
        (String.concat " " (List.map (fun (lo, hi) -> Printf.sprintf "[%s,%s]" (b lo) (b hi)) qs)))
    QCheck2.Gen.(
      triple (int_range 1400 4000) int
        (list_size (int_range 1 25)
           (pair (opt (int_range (-10) 8010)) (opt (int_range (-10) 8010)))))
    (fun (n, seed, qs) ->
      let rng = Random.State.make [| seed |] in
      let order = Array.init n (fun i -> 2 * i) in
      for i = n - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let x = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- x
      done;
      let t = Btree.create () in
      let model = Hashtbl.create n in
      let present = Array.make n 0 and npresent = ref 0 in
      Array.iteri
        (fun i k ->
          let rowids = if k mod 10 = 0 then [ k; k + 1 ] else [ k ] in
          List.iter (Btree.insert t (Value.Int k)) rowids;
          Hashtbl.replace model k rowids;
          present.(!npresent) <- k;
          incr npresent;
          if i mod 4 = 3 then begin
            let j = Random.State.int rng !npresent in
            let victim = present.(j) in
            present.(j) <- present.(!npresent - 1);
            decr npresent;
            List.iter
              (fun r -> ignore (Btree.remove t (Value.Int victim) r))
              (Hashtbl.find model victim);
            Hashtbl.remove model victim
          end)
        order;
      Btree.check_invariants t;
      let sorted_model =
        List.sort compare
          (Hashtbl.fold (fun k rowids acc -> (k, List.sort compare rowids) :: acc) model [])
      in
      Btree.cardinal t > 1023
      && List.for_all
           (fun (lo, hi) ->
             let got = ref [] in
             Btree.range t
               ?lo:(Option.map (fun x -> Value.Int x) lo)
               ?hi:(Option.map (fun x -> Value.Int x) hi)
               (fun k rowids ->
                 let k = match k with Value.Int i -> i | _ -> -1 in
                 got := (k, List.sort compare rowids) :: !got);
             let inside (k, _) =
               Option.fold ~none:true ~some:(fun l -> k >= l) lo
               && Option.fold ~none:true ~some:(fun h -> k <= h) hi
             in
             List.rev !got = List.filter inside sorted_model)
           qs)

(* ------------------------------------------------------------------ *)
(* Schema and table *)

let stock_schema () =
  Schema.make ~table:"stock"
    [
      { Schema.name = "day"; ty = Schema.TChronon; valid_time = true };
      { Schema.name = "sym"; ty = Schema.TText; valid_time = false };
      { Schema.name = "price"; ty = Schema.TFloat; valid_time = false };
    ]

let test_schema_validation () =
  (match Schema.make ~table:"t" [ { Schema.name = "a"; ty = Schema.TInt; valid_time = true } ] with
  | _ -> Alcotest.fail "valid-time must be chronon"
  | exception Schema.Schema_error _ -> ());
  (match
     Schema.make ~table:"t"
       [
         { Schema.name = "a"; ty = Schema.TInt; valid_time = false };
         { Schema.name = "a"; ty = Schema.TInt; valid_time = false };
       ]
   with
  | _ -> Alcotest.fail "duplicate column"
  | exception Schema.Schema_error _ -> ());
  let s = stock_schema () in
  check_int "column index" 2 (Schema.column_index_exn s "price");
  check_bool "valid col" true
    (match Schema.valid_time_column s with Some c -> c.Schema.name = "day" | None -> false);
  check_bool "ty_of_string array" true (Schema.ty_of_string "float[]" = Some (Schema.TArray Schema.TFloat))

let test_table_crud_and_indexes () =
  let t = Table.create (stock_schema ()) in
  let mk day sym price = [| Value.Chronon day; Value.Text sym; Value.Float price |] in
  let r1 = Table.insert t (mk 1 "IBM" 100.) in
  let _r2 = Table.insert t (mk 2 "IBM" 101.) in
  let r3 = Table.insert t (mk 3 "DEC" 50.) in
  check_int "count" 3 (Table.count t);
  Table.create_index t "day";
  check_bool "index lookup" true (Table.index_lookup t "day" (Value.Chronon 3) = Some [ r3 ]);
  (* Index maintenance across update and delete. *)
  ignore (Table.update t r3 (mk 4 "DEC" 51.));
  check_bool "old key gone" true (Table.index_lookup t "day" (Value.Chronon 3) = Some []);
  check_bool "new key present" true (Table.index_lookup t "day" (Value.Chronon 4) = Some [ r3 ]);
  ignore (Table.delete t r1);
  check_bool "deleted key gone" true (Table.index_lookup t "day" (Value.Chronon 1) = Some []);
  check_int "count after delete" 2 (Table.count t);
  (* Type errors rejected. *)
  match Table.insert t [| Value.Int 1; Value.Text "X"; Value.Float 1. |] with
  | _ -> Alcotest.fail "expected schema error"
  | exception Schema.Schema_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Query language *)

let setup_db () =
  let cat = Catalog.create () in
  let run s =
    match Exec.run_string cat s with
    | Ok r -> r
    | Error e -> Alcotest.failf "query failed: %s (%s)" e s
  in
  ignore (run "create table stock (day chronon valid, sym text, price float)");
  for d = 1 to 31 do
    ignore
      (run
         (Printf.sprintf "append stock (day = @%d, sym = 'IBM', price = %d.5)" d (100 + d)))
  done;
  (cat, run)

let rows_of = function
  | Exec.Rows { rows; _ } -> rows
  | _ -> Alcotest.fail "expected rows"

let test_qparser_forms () =
  let ok s = check_bool s true (Result.is_ok (Qparser.query s)) in
  ok "create table t (a int, b text, c chronon valid, d float[])";
  ok "create index on t (a)";
  ok "append t (a = 1, b = 'x')";
  ok "retrieve (t.a, b) from t where a > 1 and b = 'x' or not (a = 2)";
  ok "retrieve (price) from stock on \"[2]/DAYS:during:WEEKS\"";
  ok "retrieve (1 + 2 * 3)";
  ok "delete t where a <> 3";
  ok "replace t (a = a + 1) where a >= 0";
  ok "define rule r1 on append to stock where new.price > 100 do append log (msg = 'hi')";
  ok "define rule r2 on calendar \"[2]/DAYS:during:WEEKS\" do { append log (msg = 'a'); delete log where msg = 'b' }";
  ok "drop rule r1";
  let bad s = check_bool s true (Result.is_error (Qparser.query s)) in
  bad "retrieve price from stock";
  bad "append stock";
  bad "create table t (a nosuchkeyword[[)";
  bad "retrieve (a) from t where"

let test_exec_basic_crud () =
  let _, run = setup_db () in
  (match run "retrieve (count(price)) from stock" with
  | Exec.Rows { rows = [ [| Value.Int 31 |] ]; _ } -> ()
  | r -> Alcotest.failf "unexpected %s" (match r with Exec.Rows _ -> "rows" | _ -> "other"));
  let r = run "retrieve (price) from stock where day = @5" in
  (match rows_of r with
  | [ [| Value.Float p |] ] -> check_bool "price" true (abs_float (p -. 105.5) < 1e-9)
  | _ -> Alcotest.fail "expected one row");
  ignore (run "replace stock (price = price + 1.0) where day = @5");
  (match rows_of (run "retrieve (price) from stock where day = @5") with
  | [ [| Value.Float p |] ] -> check_bool "updated" true (abs_float (p -. 106.5) < 1e-9)
  | _ -> Alcotest.fail "expected one row");
  (match run "delete stock where day < @6" with
  | Exec.Affected 5 -> ()
  | _ -> Alcotest.fail "expected 5 deletions");
  match run "retrieve (count(price)) from stock" with
  | Exec.Rows { rows = [ [| Value.Int 26 |] ]; _ } -> ()
  | _ -> Alcotest.fail "expected 26"

let test_exec_expressions_and_operators () =
  let cat, run = setup_db () in
  Catalog.register_operator cat ~name:"double" ~arity:1 (function
    | [ Value.Float f ] -> Value.Float (2. *. f)
    | [ Value.Int i ] -> Value.Int (2 * i)
    | _ -> Value.Null);
  (match rows_of (run "retrieve (double(21))") with
  | [ [| Value.Int 42 |] ] -> ()
  | _ -> Alcotest.fail "registered operator");
  (* Chronon arithmetic in expressions. *)
  (match rows_of (run "retrieve (@-1 + 2)") with
  | [ [| Value.Chronon 2 |] ] -> () (* -1 + 2 skips zero *)
  | r ->
    Alcotest.failf "chronon arith: %s"
      (String.concat "," (List.map (fun row -> Value.to_string row.(0)) r)));
  match rows_of (run "retrieve (@5 - @1)") with
  | [ [| Value.Int 4 |] ] -> ()
  | _ -> Alcotest.fail "chronon difference"

let test_exec_index_selection () =
  let cat, run = setup_db () in
  ignore (run "create index on stock (day)");
  let stats = Exec.fresh_stats () in
  (match
     Exec.run_string cat ~stats "retrieve (price) from stock where day = @7"
   with
  | Ok (Exec.Rows { rows = [ _ ]; _ }) -> ()
  | _ -> Alcotest.fail "expected one row");
  check_int "index scan used" 1 stats.Exec.index_scans;
  check_int "no seq scan" 0 stats.Exec.seq_scans;
  check_bool "touched few tuples" true (stats.Exec.scanned <= 2);
  (* Unindexed predicate falls back to a sequential scan. *)
  let stats2 = Exec.fresh_stats () in
  (match Exec.run_string cat ~stats:stats2 "retrieve (price) from stock where sym = 'IBM'" with
  | Ok (Exec.Rows { rows; _ }) -> check_int "all rows" 31 (List.length rows)
  | _ -> Alcotest.fail "expected rows");
  check_int "seq scan used" 1 stats2.Exec.seq_scans;
  check_int "scanned everything" 31 stats2.Exec.scanned

let test_exec_on_clause () =
  let cat, run = setup_db () in
  (* Install a resolver that interprets the only expression we use as
     Tuesdays within January: days 5,12,19,26. *)
  Catalog.set_calendar_resolver cat (fun src ->
      if String.equal src "[2]/DAYS:during:WEEKS" then
        Interval_set.of_pairs [ (5, 5); (12, 12); (19, 19); (26, 26) ]
      else Interval_set.empty);
  let r = run "retrieve (day, price) from stock on \"[2]/DAYS:during:WEEKS\"" in
  let days =
    List.map (fun row -> match row.(0) with Value.Chronon c -> c | _ -> -1) (rows_of r)
  in
  Alcotest.(check (list int)) "tuesday rows" [ 5; 12; 19; 26 ] (List.sort Int.compare days);
  (* With an index on the valid column, the probe is index-backed. *)
  ignore (run "create index on stock (day)");
  let stats = Exec.fresh_stats () in
  (match
     Exec.run_string cat ~stats "retrieve (day) from stock on \"[2]/DAYS:during:WEEKS\""
   with
  | Ok (Exec.Rows { rows; _ }) -> check_int "four rows" 4 (List.length rows)
  | _ -> Alcotest.fail "expected rows");
  check_int "index-backed" 1 stats.Exec.index_scans;
  check_bool "touched only matches" true (stats.Exec.scanned <= 4);
  (* No valid-time column -> error. *)
  ignore (run "create table plain (a int)");
  match Exec.run_string cat "retrieve (a) from plain on \"X\"" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error for missing valid-time column"

(* Range conjuncts on one indexed column fuse into one bounded index
   walk that touches only the rows inside the range, whatever the
   orientation, strictness or number of bounds; with an on-clause over
   the same valid-time column the range clips the calendar sweep instead
   of probing on its own. *)
let test_exec_fused_range () =
  let cat, run = setup_db () in
  for d = 32 to 2000 do
    ignore (run (Printf.sprintf "append stock (day = @%d, sym = 'IBM', price = 1.5)" d))
  done;
  ignore (run "create index on stock (day)");
  Catalog.set_calendar_resolver cat (fun _ ->
      Interval_set.of_pairs (List.init 1000 (fun i -> (2 * (i + 1), 2 * (i + 1)))));
  let probe q =
    let stats = Exec.fresh_stats () in
    match Exec.run_string cat ~stats q with
    | Ok (Exec.Rows { rows; _ }) ->
      (List.map (fun row -> match row.(0) with Value.Chronon c -> c | _ -> -1) rows, stats)
    | Ok _ -> Alcotest.failf "expected rows: %s" q
    | Error e -> Alcotest.failf "query failed: %s (%s)" e q
  in
  let expect label q ~days ~scanned =
    let got, s = probe q in
    Alcotest.(check (list int)) (label ^ ": rows") days got;
    check_int (label ^ ": one index probe") 1 s.Exec.index_probes;
    check_int (label ^ ": tuples touched") scanned s.Exec.scanned
  in
  expect "closed range" "retrieve (day) from stock where day >= @500 and day <= @502"
    ~days:[ 500; 501; 502 ] ~scanned:3;
  (* the tighter lower bound wins; strict bounds widen to an inclusive
     probe [499, 503] and the residual drops its ends *)
  expect "flipped, strict, two lower bounds"
    "retrieve (day) from stock where @499 < day and day >= @498 and day < @503"
    ~days:[ 500; 501; 502 ] ~scanned:5;
  expect "two upper bounds" "retrieve (day) from stock where day <= @52 and day <= @51"
    ~days:(List.init 51 (fun i -> i + 1)) ~scanned:51;
  expect "inverted" "retrieve (day) from stock where day >= @600 and day <= @599" ~days:[]
    ~scanned:0;
  expect "clipped calendar sweep"
    "retrieve (day) from stock where day >= @500 and day <= @510 on \"EVEN\""
    ~days:[ 500; 502; 504; 506; 508; 510 ] ~scanned:6;
  (* an Int bound sorts below every chronon: it admits them all *)
  expect "clip by a chronon only"
    "retrieve (day) from stock where day >= 3 and day <= @6 on \"EVEN\""
    ~days:[ 2; 4; 6 ] ~scanned:3

(* Conjunct flattening feeds access-path selection: every sargable
   conjunct must surface no matter how the parser nested the [and]s. *)
let test_conjuncts_flatten () =
  let open Qexpr in
  let a = Col "a" and b = Col "b" and c = Col "c" and d = Col "d" in
  let ( &&& ) x y = Binop (And, x, y) in
  let eq = Alcotest.(check (list string)) in
  let strs e = List.map to_string (conjuncts e) in
  eq "balanced nesting" [ "a"; "b"; "c"; "d" ] (strs ((a &&& b) &&& (c &&& d)));
  eq "right-nested" [ "a"; "b"; "c"; "d" ] (strs (a &&& (b &&& (c &&& d))));
  eq "left-nested" [ "a"; "b"; "c"; "d" ] (strs (((a &&& b) &&& c) &&& d));
  eq "single expression" [ "a" ] (strs a);
  eq "or is opaque" [ "(a or b)" ] (strs (Binop (Or, a, b)));
  eq "or under and" [ "(a or b)"; "c" ] (strs (Binop (Or, a, b) &&& c))

(* Regression: with two indexed columns the planner (and the upgraded
   interpreter) must probe the more selective one, not the first conjunct
   in writing order. *)
let test_exec_selectivity () =
  let cat = Catalog.create () in
  let run s =
    match Exec.run_string cat s with
    | Ok r -> r
    | Error e -> Alcotest.failf "query failed: %s (%s)" e s
  in
  ignore (run "create table wide (a int, b int)");
  for i = 0 to 499 do
    ignore (run (Printf.sprintf "append wide (a = %d, b = %d)" (i mod 2) i))
  done;
  ignore (run "create index on wide (a)");
  ignore (run "create index on wide (b)");
  (* a = 1 matches 250 rows, b = 123 exactly one; a comes first in the
     where clause. *)
  let probe ~mode q =
    let stats = Exec.fresh_stats () in
    (match Exec.run_string cat ~stats ~mode q with
    | Ok (Exec.Rows { rows = [ [| Value.Int 123 |] ]; _ }) -> ()
    | Ok _ -> Alcotest.fail "expected exactly the row b = 123"
    | Error e -> Alcotest.failf "query failed: %s" e);
    stats
  in
  let s = probe ~mode:`Compiled "retrieve (b) from wide where a = 1 and b = 123" in
  check_int "compiled: index scan" 1 s.Exec.index_scans;
  check_bool "compiled: probed the selective index" true (s.Exec.scanned <= 2);
  let s = probe ~mode:`Interpreted "retrieve (b) from wide where a = 1 and b = 123" in
  check_bool "interpreted: picked the selective index" true (s.Exec.scanned <= 2);
  (* A wide range conjunct on [a] must not beat the equality on [b]. *)
  let s = probe ~mode:`Compiled "retrieve (b) from wide where a >= 0 and b = 123" in
  check_bool "range conjunct does not drag in the table" true (s.Exec.scanned <= 2)

(* The plan cache: constants are parameterized away, so re-running the
   same shape with a different constant is a hit; DDL invalidates. *)
let test_plan_cache () =
  let cat, run = setup_db () in
  let q d = Printf.sprintf "retrieve (price) from stock where day = @%d" d in
  let run_q stats d =
    match Exec.run_string cat ~stats (q d) with
    | Ok (Exec.Rows { rows = [ [| Value.Float _ |] ]; _ }) -> ()
    | _ -> Alcotest.failf "expected one row for day %d" d
  in
  let stats = Exec.fresh_stats () in
  run_q stats 5;
  check_int "first run misses" 1 stats.Exec.plan_cache_misses;
  run_q stats 9;
  run_q stats 23;
  check_int "same skeleton, new constants: hits" 2 stats.Exec.plan_cache_hits;
  check_int "still a single build" 1 stats.Exec.plan_cache_misses;
  (* DDL bumps the catalog version: the cached plan is stale, and the
     rebuilt one sees the new index. *)
  ignore (run "create index on stock (day)");
  let stats2 = Exec.fresh_stats () in
  run_q stats2 7;
  check_int "post-DDL rebuild" 1 stats2.Exec.plan_cache_misses;
  check_int "rebuilt plan uses the new index" 1 stats2.Exec.index_scans;
  let cs = Qplan.cache_stats cat in
  check_bool "invalidation recorded" true (cs.Qplan.invalidations >= 1);
  check_bool "cache is populated" true (cs.Qplan.size >= 1);
  (* Interpreted mode never touches the plan cache. *)
  let stats3 = Exec.fresh_stats () in
  (match Exec.run_string cat ~stats:stats3 ~mode:`Interpreted (q 5) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "query failed: %s" e);
  check_int "interpreted: no cache traffic" 0
    (stats3.Exec.plan_cache_hits + stats3.Exec.plan_cache_misses)

let test_exec_hooks () =
  let cat, run = setup_db () in
  let events = ref [] in
  Catalog.add_hook cat (fun ev -> events := ev.Catalog.kind :: !events);
  ignore (run "append stock (day = @40, sym = 'HP', price = 10.0)");
  ignore (run "delete stock where day = @40");
  check_bool "append then delete fired" true
    (match !events with Catalog.On_delete :: Catalog.On_append :: _ -> true | _ -> false)

let test_exec_rule_passthrough () =
  let _, run = setup_db () in
  match run "define rule r1 on append to stock do append stock (day = @1, sym = 'x', price = 0.0)" with
  | Exec.Rule_def r ->
    check_str "rule name" "r1" r.Qast.rule_name;
    check_bool "db event" true
      (match r.Qast.event with Qast.Ev_db (Catalog.On_append, "stock") -> true | _ -> false)
  | _ -> Alcotest.fail "expected rule definition"

let test_exec_group_by () =
  let _, run = setup_db () in
  ignore (run "create table sales (sym text, qty int, price float)");
  List.iter
    (fun (sym, qty, price) ->
      ignore
        (run (Printf.sprintf "append sales (sym = '%s', qty = %d, price = %.1f)" sym qty price)))
    [ ("IBM", 10, 100.); ("DEC", 5, 50.); ("IBM", 20, 110.); ("DEC", 15, 60.); ("HP", 1, 10.) ];
  (match run "retrieve (sym, total = sum(qty), mean = avg(price)) from sales group by sym" with
  | Exec.Rows { columns; rows } ->
    Alcotest.(check (list string)) "columns" [ "sym"; "total"; "mean" ] columns;
    check_int "three groups" 3 (List.length rows);
    let find s =
      List.find (fun r -> r.(0) = Value.Text s) rows
    in
    check_bool "ibm total" true ((find "IBM").(1) = Value.Float 30.);
    check_bool "dec mean" true ((find "DEC").(2) = Value.Float 55.);
    check_bool "hp count" true ((find "HP").(1) = Value.Float 1.)
  | _ -> Alcotest.fail "expected rows");
  (* Grouped + filtered. *)
  (match run "retrieve (sym, n = count(qty)) from sales where qty >= 10 group by sym" with
  | Exec.Rows { rows; _ } -> check_int "two groups after filter" 2 (List.length rows)
  | _ -> Alcotest.fail "expected rows");
  (* A non-aggregate, non-grouped target is rejected. *)
  (match Exec.run_string (fst (setup_db ())) "retrieve (price, sym) from stock group by sym" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error")

let test_exec_errors () =
  let cat, _ = setup_db () in
  let err s = check_bool s true (Result.is_error (Exec.run_string cat s)) in
  err "retrieve (nope) from stock";
  err "retrieve (price) from nosuch";
  err "append stock (day = 'not a chronon', sym = 'x', price = 1.0)";
  err "retrieve (price / 0.0) from stock where day = @1 and price / 0 > 1";
  err "create table stock (a int)" (* duplicate *)

(* Dump literals round-trip through the parser for values in the ranges a
   database realistically stores. *)
let prop_dump_value_roundtrip =
  let value_gen =
    let open QCheck2.Gen in
    oneof
      [
        return Value.Null;
        map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Int i) (int_range (-1_000_000) 1_000_000);
        map (fun f -> Value.Float f) (float_range (-1e9) 1e9);
        map (fun s -> Value.Text s)
          (string_size ~gen:(oneofl [ 'a'; 'z'; '\''; '"'; '\\'; '\n'; '\t'; ' ' ]) (int_range 0 12));
        map (fun c -> Value.Chronon (Chronon.of_offset c)) (int_range (-5000) 5000);
        map2
          (fun a b ->
            Value.Interval (Interval.make (Chronon.of_offset (min a b)) (Chronon.of_offset (max a b))))
          (int_range (-500) 500) (int_range (-500) 500);
      ]
  in
  QCheck2.Test.make ~name:"dump literal parses back to the same value" ~count:400
    QCheck2.Gen.(oneof [ value_gen; map (fun l -> Value.Array (Array.of_list l)) (list_size (int_range 0 4) value_gen) ])
    (fun v ->
      let catalog = Catalog.create () in
      let lit = Dump.literal v in
      match Qparser.expr_exn lit with
      | e -> (
        match Qexpr.eval ~catalog ~binding:(fun _ -> None) e with
        | v' -> Value.equal v v' || (v = Value.Null && v' = Value.Null)
        | exception _ -> false)
      | exception _ -> false)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "cal_db"
    [
      ( "value",
        [
          Alcotest.test_case "basics" `Quick test_value_basics;
          Alcotest.test_case "adt registry" `Quick test_value_adt;
        ] );
      ( "btree",
        [
          Alcotest.test_case "basic" `Quick test_btree_basic;
          Alcotest.test_case "range" `Quick test_btree_range;
        ] );
      ( "schema/table",
        [
          Alcotest.test_case "schema validation" `Quick test_schema_validation;
          Alcotest.test_case "crud + index maintenance" `Quick test_table_crud_and_indexes;
        ] );
      ("qparser", [ Alcotest.test_case "forms" `Quick test_qparser_forms ]);
      ( "exec",
        [
          Alcotest.test_case "basic crud" `Quick test_exec_basic_crud;
          Alcotest.test_case "expressions + operators" `Quick test_exec_expressions_and_operators;
          Alcotest.test_case "index selection" `Quick test_exec_index_selection;
          Alcotest.test_case "conjunct flattening" `Quick test_conjuncts_flatten;
          Alcotest.test_case "selectivity ranking" `Quick test_exec_selectivity;
          Alcotest.test_case "fused range probe" `Quick test_exec_fused_range;
          Alcotest.test_case "plan cache" `Quick test_plan_cache;
          Alcotest.test_case "valid-time on-clause" `Quick test_exec_on_clause;
          Alcotest.test_case "group by" `Quick test_exec_group_by;
          Alcotest.test_case "event hooks" `Quick test_exec_hooks;
          Alcotest.test_case "rule passthrough" `Quick test_exec_rule_passthrough;
          Alcotest.test_case "errors" `Quick test_exec_errors;
        ] );
      qsuite "btree-props" [ prop_btree_model; prop_btree_range_model; prop_btree_range_deep ];
      qsuite "dump-props" [ prop_dump_value_roundtrip ];
    ]
