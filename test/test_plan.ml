(* Property-based differential tests for the compiled query pipeline
   (Qcompile / Qplan / Exec): on random tables and queries the compiled
   engine must agree with the retained tree-walking interpreter and with
   a forced sequential scan; compiled scalar expressions must match
   Qexpr.eval; the B-tree's merged range sweep must match per-interval
   probing; and parameterization must give constant-differing queries
   one shared plan skeleton. *)

open Cal_db

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

(* ------------------------------------------------------------------ *)
(* A random world: t(k int, v float, d chronon valid, s text), indexed
   on k and d so the probe machinery is on the differential's hot path. *)

let row_gen =
  QCheck2.Gen.(
    quad (int_range (-3) 9)
      (map (fun i -> float_of_int i /. 2.) (int_range (-10) 10))
      (int_range 1 60)
      (oneofl [ "x"; "y"; "z" ]))

let rows_gen = QCheck2.Gen.(list_size (int_range 0 40) row_gen)

let build_catalog ?(index = true) rows =
  let cat = Catalog.create () in
  (match
     Exec.run_string cat "create table t (k int, v float, d chronon valid, s text)"
   with
  | Ok _ -> ()
  | Error e -> failwith e);
  let tbl = Catalog.table cat "t" in
  List.iter
    (fun (k, v, d, s) ->
      ignore
        (Table.insert tbl [| Value.Int k; Value.Float v; Value.Chronon d; Value.Text s |]))
    rows;
  if index then begin
    Catalog.create_index cat "t" "k";
    Catalog.create_index cat "t" "d"
  end;
  cat

(* ------------------------------------------------------------------ *)
(* Random expressions. Unknown and foreign-qualified columns are
   generated on purpose: both engines must fail them identically (by
   presence — messages may differ across engines). *)

let const_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun i -> Value.Int i) (int_range (-3) 9);
        map (fun i -> Value.Float (float_of_int i /. 2.)) (int_range (-10) 10);
        map (fun c -> Value.Chronon c) (int_range 1 60);
        map (fun s -> Value.Text s) (oneofl [ "x"; "y"; "z" ]);
        return Value.Null;
        map (fun b -> Value.Bool b) bool;
      ])

let col_gen = QCheck2.Gen.oneofl [ "k"; "v"; "d"; "s"; "t.k"; "t.d"; "nosuch" ]
let cmp_gen = QCheck2.Gen.oneofl [ Qexpr.Eq; Qexpr.Ne; Qexpr.Lt; Qexpr.Le; Qexpr.Gt; Qexpr.Ge ]
let arith_gen = QCheck2.Gen.oneofl [ Qexpr.Add; Qexpr.Sub; Qexpr.Mul; Qexpr.Div ]

(* Indexable conjuncts, generated often so access-path selection really
   runs (equality and ranges over both indexed columns, types mixed). *)
let sargable_gen =
  QCheck2.Gen.(
    map3
      (fun c op v -> Qexpr.Binop (op, Qexpr.Col c, Qexpr.Const v))
      (oneofl [ "k"; "d"; "t.k"; "t.d" ])
      (oneofl [ Qexpr.Eq; Qexpr.Lt; Qexpr.Le; Qexpr.Gt; Qexpr.Ge ])
      (oneof
         [
           map (fun i -> Value.Int i) (int_range (-3) 9);
           map (fun c -> Value.Chronon c) (int_range 1 60);
         ]))

(* Two-sided ranges on one indexed column, which the planner fuses into
   one probe: two to four bound conjuncts on the same column in either
   orientation ([Const op Col] too), strict and inclusive, often two
   bounds on one side and often inverted (empty). Bounds are mostly of the
   column's own type, sometimes the other one (Int and Chronon mixed on
   one column), and reach past the stored values on both sides. *)
let range_gen =
  QCheck2.Gen.(
    let* col = oneofl [ "k"; "d"; "t.k"; "t.d" ] in
    let ints = map (fun i -> Value.Int i) (int_range (-5) 11)
    and chronons = map (fun c -> Value.Chronon c) (int_range (-10) 62) in
    let value =
      if col = "k" || col = "t.k" then frequency [ (4, ints); (1, chronons) ]
      else frequency [ (4, chronons); (1, ints) ]
    in
    let bound ops =
      map3
        (fun flip op v ->
          if not flip then Qexpr.Binop (op, Qexpr.Col col, Qexpr.Const v)
          else
            let op =
              match op with
              | Qexpr.Lt -> Qexpr.Gt
              | Qexpr.Le -> Qexpr.Ge
              | Qexpr.Gt -> Qexpr.Lt
              | _ -> Qexpr.Le
            in
            Qexpr.Binop (op, Qexpr.Const v, Qexpr.Col col))
        bool (oneofl ops) value
    in
    let* lows = list_size (int_range 1 2) (bound [ Qexpr.Gt; Qexpr.Ge ]) in
    let* highs = list_size (int_range 1 2) (bound [ Qexpr.Lt; Qexpr.Le ]) in
    map
      (function
        | e :: rest -> List.fold_left (fun acc e -> Qexpr.Binop (Qexpr.And, acc, e)) e rest
        | [] -> assert false)
      (shuffle_l (lows @ highs)))

let expr_gen =
  QCheck2.Gen.(
    sized_size (int_range 0 4)
    @@ fix (fun self n ->
           let leaf =
             oneof
               [ map (fun c -> Qexpr.Col c) col_gen; map (fun v -> Qexpr.Const v) const_gen ]
           in
           if n <= 0 then oneof [ leaf; sargable_gen ]
           else
             oneof
               [
                 leaf;
                 sargable_gen;
                 map3 (fun op a b -> Qexpr.Binop (op, a, b)) cmp_gen (self (n / 2)) (self (n / 2));
                 map3 (fun op a b -> Qexpr.Binop (op, a, b)) arith_gen (self (n / 2)) (self (n / 2));
                 map2 (fun a b -> Qexpr.Binop (Qexpr.And, a, b)) (self (n / 2)) (self (n / 2));
                 map2 (fun a b -> Qexpr.Binop (Qexpr.Or, a, b)) (self (n / 2)) (self (n / 2));
                 map (fun e -> Qexpr.Not e) (self (n - 1));
                 map (fun e -> Qexpr.Neg e) (self (n - 1));
               ]))

(* Where clauses are and-spines mixing sargable conjuncts and fused
   ranges with arbitrary residuals, so multi-probe intersection runs
   against a real filter. *)
let where_gen =
  QCheck2.Gen.(
    map
      (function
        | [] -> None
        | e :: rest ->
          Some (List.fold_left (fun acc e -> Qexpr.Binop (Qexpr.And, acc, e)) e rest))
      (list_size (int_range 0 3) (oneof [ sargable_gen; range_gen; expr_gen ])))

let print_where = function Some e -> Qexpr.to_string e | None -> "<none>"

(* ------------------------------------------------------------------ *)
(* Engine-differential helpers. *)

let run_q cat ~mode ?(force_seq = false) q =
  match Exec.run cat ~stats:(Exec.fresh_stats ()) ~mode ~force_seq q with
  | r -> Ok r
  | exception Exec.Exec_error m -> Error m
  | exception Qexpr.Eval_error m -> Error m
  | exception Catalog.No_such_operator m -> Error ("no such operator: " ^ m)

let rows_equal r1 r2 =
  match (r1, r2) with
  | Exec.Rows { rows = a; columns = ca }, Exec.Rows { rows = b; columns = cb } ->
    ca = cb
    && List.length a = List.length b
    && List.for_all2
         (fun x y -> Array.length x = Array.length y && Array.for_all2 Value.equal x y)
         a b
  | Exec.Affected a, Exec.Affected b -> a = b
  | _ -> false

let contents cat =
  Table.fold (Catalog.table cat "t") (fun acc rowid tuple -> (rowid, Array.to_list tuple) :: acc) []

(* What access-path selection may and may not change. Probes are sound
   (a row satisfying the where satisfies every conjunct, so it is in
   every probe's candidates), which gives three invariants:
   - the two engines' sequential scans agree exactly, errors included;
   - when the sequential scan succeeds, every indexed run returns the
     same rows — and may not raise;
   - when the sequential scan raises, an indexed run may legitimately
     prune away the poisoned rows and succeed (with the same rows the
     scan would have kept), but a successful indexed result still has
     nothing to be compared against, so only the error direction is
     checked. Index pruning may hide errors, never invent them. *)
let seq_pair_agree a b =
  match (a, b) with
  | Ok ra, Ok rb -> rows_equal ra rb
  | Error _, Error _ -> true
  | _ -> false

let indexed_sound ~seq ix =
  match (ix, seq) with
  | Ok ri, Ok rs -> rows_equal ri rs
  | Error _, Ok _ -> false
  | (Ok _ | Error _), Error _ -> true

let retrieve_differential =
  QCheck2.Test.make ~name:"retrieve: compiled = interpreted = forced seq scan" ~count:300
    ~print:(fun (rows, w) ->
      Printf.sprintf "%d rows; where %s" (List.length rows) (print_where w))
    QCheck2.Gen.(pair rows_gen where_gen)
    (fun (rows, where) ->
      let cat = build_catalog rows in
      let q =
        Qast.Retrieve
          {
            targets = [ ("k", Qexpr.Col "k"); ("v", Qexpr.Col "v"); ("d", Qexpr.Col "d") ];
            from_ = Some "t";
            where;
            on_cal = None;
            group_by = [];
          }
      in
      let c_ix = run_q cat ~mode:`Compiled q in
      let i_ix = run_q cat ~mode:`Interpreted q in
      let c_seq = run_q cat ~mode:`Compiled ~force_seq:true q in
      let i_seq = run_q cat ~mode:`Interpreted ~force_seq:true q in
      seq_pair_agree c_seq i_seq
      && indexed_sound ~seq:c_seq c_ix
      && indexed_sound ~seq:c_seq i_ix)

(* The on-clause: the compiled single merged range sweep must select the
   same rows as the interpreter's per-interval probes and as a scan. *)
let on_cal_differential =
  QCheck2.Test.make ~name:"on-calendar: merged sweep = per-interval probes = seq scan"
    ~count:200
    ~print:(fun (rows, raw) ->
      Printf.sprintf "%d rows; cal %s" (List.length rows)
        (String.concat ","
           (List.map (fun (lo, w) -> Printf.sprintf "(%d,%d)" lo (lo + w)) raw)))
    QCheck2.Gen.(
      pair rows_gen (list_size (int_range 0 5) (pair (int_range 1 60) (int_range 0 8))))
    (fun (rows, raw) ->
      let cat = build_catalog rows in
      Catalog.set_calendar_resolver cat (fun _ ->
          Interval_set.of_pairs (List.map (fun (lo, w) -> (lo, lo + w)) raw));
      let q =
        Qast.Retrieve
          {
            targets = [ ("d", Qexpr.Col "d"); ("k", Qexpr.Col "k") ];
            from_ = Some "t";
            where = None;
            on_cal = Some "CAL";
            group_by = [];
          }
      in
      match
        ( run_q cat ~mode:`Compiled q,
          run_q cat ~mode:`Interpreted q,
          run_q cat ~mode:`Compiled ~force_seq:true q )
      with
      | Ok rc, Ok ri, Ok rcs -> rows_equal rc ri && rows_equal rc rcs
      | Error _, Error _, Error _ -> true
      | _ -> false)

(* On-clause access paths. The compiled engine trusts the calendar
   sweep (an indexed valid-time column) and skips its per-row calendar
   check; every other path keeps the check. Vary what is indexed, mix a
   where clause (often an indexed probe intersected with the sweep), put
   NULL and negative chronons in the valid-time column and hand over an
   uncoalesced calendar; compiled reads must match the forced scan and
   the interpreter row for row. *)
let access_row_gen =
  QCheck2.Gen.(
    quad (int_range (-3) 9)
      (map (fun i -> float_of_int i /. 2.) (int_range (-10) 10))
      (oneof [ map Option.some (int_range 1 60); map Option.some (int_range (-8) (-1)); return None ])
      (oneofl [ "x"; "y"; "z" ]))

let on_cal_access_paths =
  QCheck2.Test.make ~name:"on-calendar access paths: compiled = forced seq = interpreted"
    ~count:600
    ~print:(fun ((rows, ix_k, ix_d), (raw, where)) ->
      Printf.sprintf "%d rows (%d NULL); index k %b d %b; cal %s; where %s" (List.length rows)
        (List.length (List.filter (fun (_, _, d, _) -> d = None) rows))
        ix_k ix_d
        (String.concat "," (List.map (fun (lo, hi) -> Printf.sprintf "(%d,%d)" lo hi) raw))
        (print_where where))
    QCheck2.Gen.(
      pair
        (triple (list_size (int_range 0 60) access_row_gen) bool bool)
        (pair
           (list_size (int_range 0 6)
              (map2
                 (fun lo w -> (lo, if lo < 0 && lo + w >= 0 then lo + w + 1 else lo + w))
                 (oneof [ int_range 1 60; int_range (-8) (-1) ])
                 (int_range 0 8)))
           where_gen))
    (fun ((rows, ix_k, ix_d), (raw, where)) ->
      let cat = build_catalog ~index:false [] in
      let tbl = Catalog.table cat "t" in
      List.iter
        (fun (k, v, d, s) ->
          let d = match d with Some c -> Value.Chronon c | None -> Value.Null in
          ignore (Table.insert tbl [| Value.Int k; Value.Float v; d; Value.Text s |]))
        rows;
      if ix_k then Catalog.create_index cat "t" "k";
      if ix_d then Catalog.create_index cat "t" "d";
      Catalog.set_calendar_resolver cat (fun _ -> Interval_set.of_pairs raw);
      let q =
        Qast.Retrieve
          {
            targets = [ ("d", Qexpr.Col "d"); ("k", Qexpr.Col "k"); ("s", Qexpr.Col "s") ];
            from_ = Some "t";
            where;
            on_cal = Some "CAL";
            group_by = [];
          }
      in
      let c_ix = run_q cat ~mode:`Compiled q in
      let i_ix = run_q cat ~mode:`Interpreted q in
      let c_seq = run_q cat ~mode:`Compiled ~force_seq:true q in
      let i_seq = run_q cat ~mode:`Interpreted ~force_seq:true q in
      seq_pair_agree c_seq i_seq
      && indexed_sound ~seq:c_seq c_ix
      && indexed_sound ~seq:c_seq i_ix
      && (match (c_ix, i_ix) with Ok a, Ok b -> rows_equal a b | _ -> true))

(* Mutations: run the same delete/replace through both engines on two
   identically-built catalogs; the surviving heaps must coincide. *)
let mutation_differential =
  QCheck2.Test.make ~name:"delete/replace: compiled = interpreted heap contents" ~count:200
    ~print:(fun (rows, w, del) ->
      Printf.sprintf "%d rows; %s where %s" (List.length rows)
        (if del then "delete" else "replace")
        (print_where w))
    QCheck2.Gen.(triple rows_gen where_gen bool)
    (fun (rows, where, use_delete) ->
      let cat_c = build_catalog rows and cat_i = build_catalog rows in
      let q =
        if use_delete then Qast.Delete { table = "t"; where }
        else
          Qast.Replace
            {
              table = "t";
              assigns =
                [
                  ("k", Qexpr.Binop (Qexpr.Add, Qexpr.Col "k", Qexpr.Const (Value.Int 1)));
                  ("v", Qexpr.Const (Value.Float 9.5));
                ];
              where;
            }
      in
      let cat_cs = build_catalog rows and cat_is = build_catalog rows in
      let rc = run_q cat_c ~mode:`Compiled q in
      let ri = run_q cat_i ~mode:`Interpreted q in
      let rcs = run_q cat_cs ~mode:`Compiled ~force_seq:true q in
      let ris = run_q cat_is ~mode:`Interpreted ~force_seq:true q in
      (* Sequential runs are in lock-step: same rows examined in the same
         order, so results, error states and heaps (even after a partial
         replace aborted by an assign error) coincide exactly. *)
      seq_pair_agree rcs ris
      && contents cat_cs = contents cat_is
      (* Indexed runs must apply the same mutation whenever the scan
         succeeds, and may not raise where the scan did not. *)
      && indexed_sound ~seq:rcs rc
      && indexed_sound ~seq:rcs ri
      && (Result.is_error rcs
         || (contents cat_c = contents cat_cs && contents cat_i = contents cat_cs)))

(* ------------------------------------------------------------------ *)
(* Compiled scalar code vs the tree-walking evaluator, on a tuple that
   differs from anything stored (so offsets, not luck, must be right). *)

let scalar_matches_eval =
  QCheck2.Test.make ~name:"compiled scalar expression = Qexpr.eval" ~count:500
    ~print:Qexpr.to_string expr_gen (fun e ->
      let cat = build_catalog [ (1, 0.5, 3, "x") ] in
      let tbl = Catalog.table cat "t" in
      let schema = tbl.Table.schema in
      let tuple = [| Value.Int 4; Value.Float 2.5; Value.Chronon 7; Value.Text "y" |] in
      let binding name =
        match Qplan.own_column tbl name with
        | Some base ->
          Option.map (fun i -> tuple.(i)) (Schema.column_index schema base)
        | None -> None
      in
      let interpreted =
        match Qexpr.eval ~catalog:cat ~binding e with
        | v -> Ok v
        | exception Qexpr.Eval_error _ -> Error ()
        | exception Catalog.No_such_operator _ -> Error ()
      in
      let compiled =
        let env = Qcompile.make_env ~catalog:cat ~table:tbl () in
        let code = Qcompile.compile env e in
        let outer =
          Qcompile.bind_outer ~outer_cols:(Qcompile.outer_cols env) (fun _ -> None)
        in
        match code [||] outer tuple with
        | v -> Ok v
        | exception Qexpr.Eval_error _ -> Error ()
        | exception Catalog.No_such_operator _ -> Error ()
      in
      match (interpreted, compiled) with
      | Ok a, Ok b -> Value.equal a b
      | Error (), Error () -> true
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Btree.range_merge vs one Btree.range per interval: identical visit
   sequence on random trees and random disjoint interval lists. Some keys
   are not chronons (NULL valid times, a stray Int); neither path may
   visit them. *)

let range_merge_matches_range =
  QCheck2.Test.make ~name:"Btree.range_merge = per-interval Btree.range" ~count:500
    ~print:(fun (keys, raw) ->
      Printf.sprintf "keys [%s]; ivals [%s]"
        (String.concat ";" (List.map string_of_int keys))
        (String.concat ";" (List.map (fun (lo, w) -> Printf.sprintf "%d+%d" lo w) raw)))
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 400) (int_range 1 300))
        (list_size (int_range 0 12) (pair (int_range 1 300) (int_range 0 20))))
    (fun (keys, raw) ->
      let t = Btree.create () in
      List.iteri
        (fun i k ->
          let key =
            match i mod 7 with 5 -> Value.Null | 6 -> Value.Int k | _ -> Value.Chronon k
          in
          Btree.insert t key i)
        keys;
      let ivals =
        (* sorted and disjoint, as the executor hands them over *)
        let rec disj = function
          | (a1, b1) :: (a2, b2) :: rest ->
            if a2 <= b1 + 1 then disj ((a1, max b1 b2) :: rest)
            else (a1, b1) :: disj ((a2, b2) :: rest)
          | l -> l
        in
        disj (List.sort compare (List.map (fun (lo, w) -> (lo, lo + w)) raw))
      in
      let merged = ref [] in
      Btree.range_merge t
        (Array.of_list (List.concat_map (fun (a, b) -> [ a; b ]) ivals))
        (fun k vals -> merged := (k, List.sort compare vals) :: !merged);
      let per = ref [] in
      List.iter
        (fun (a, b) ->
          Btree.range t ~lo:(Value.Chronon a) ~hi:(Value.Chronon b) (fun k vals ->
              per := (k, List.sort compare vals) :: !per))
        ivals;
      !merged = !per)

(* Candidate ordering: short arrays take the insertion sort, longer ones
   the radix sort, with rowids wide enough for several byte passes. *)
let sort_rowids_matches =
  QCheck2.Test.make ~name:"Exec.sort_rowids = List.sort_uniq" ~count:500
    ~print:QCheck2.Print.(list int)
    QCheck2.Gen.(
      list_size (int_range 0 300)
        (oneof [ int_range 0 40; int_range 0 70_000; int_range 0 (1 lsl 40); return max_int ]))
    (fun l -> Exec.sort_rowids (Array.of_list l) = Array.of_list (List.sort_uniq Int.compare l))

(* ------------------------------------------------------------------ *)
(* Parameterization and the plan cache. *)

let mk_eq_query c =
  Qast.Retrieve
    {
      targets = [ ("k", Qexpr.Col "k") ];
      from_ = Some "t";
      where = Some (Qexpr.Binop (Qexpr.Eq, Qexpr.Col "k", Qexpr.Const (Value.Int c)));
      on_cal = None;
      group_by = [];
    }

let parameterize_shares_skeleton =
  QCheck2.Test.make ~name:"constant-differing queries share one skeleton" ~count:200
    QCheck2.Gen.(pair (int_range (-100) 100) (int_range (-100) 100))
    (fun (c1, c2) ->
      match (Qplan.parameterize_query (mk_eq_query c1), Qplan.parameterize_query (mk_eq_query c2)) with
      | Some (s1, p1), Some (s2, p2) ->
        s1 = s2 && p1 = [| Value.Int c1 |] && p2 = [| Value.Int c2 |]
      | _ -> false)

let plan_cache_hit_on_new_constant =
  QCheck2.Test.make ~name:"second constant-differing run hits the plan cache" ~count:50
    QCheck2.Gen.(triple rows_gen (int_range (-3) 9) (int_range (-3) 9))
    (fun (rows, c1, c2) ->
      let cat = build_catalog rows in
      let s1 = Exec.fresh_stats () in
      ignore (Exec.run cat ~stats:s1 (mk_eq_query c1));
      let s2 = Exec.fresh_stats () in
      ignore (Exec.run cat ~stats:s2 (mk_eq_query c2));
      s1.Exec.plan_cache_misses = 1
      && s1.Exec.plan_cache_hits = 0
      && s2.Exec.plan_cache_misses = 0
      && s2.Exec.plan_cache_hits = 1)

let () =
  Alcotest.run "cal_plan"
    [
      qsuite "engine-differential"
        [ retrieve_differential; on_cal_differential; on_cal_access_paths; mutation_differential ];
      qsuite "expression-oracle" [ scalar_matches_eval ];
      qsuite "access-path" [ range_merge_matches_range; sort_rowids_matches ];
      qsuite "plan-cache" [ parameterize_shares_skeleton; plan_cache_hit_on_new_constant ];
    ]
