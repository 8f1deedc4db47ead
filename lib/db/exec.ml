(** Query execution as a compile-then-execute pipeline.

    The default [`Compiled] mode prepares a query through {!Qplan}:
    constants are hoisted into a parameter vector, the skeleton is looked
    up in the catalog's plan cache, and on a miss the where clause,
    targets and assignments are lowered once into closures with columns
    resolved to tuple offsets ({!Qcompile}). Access paths then rank every
    probe by estimated selectivity and intersect the candidate rowid sets
    worth materializing via a sorted-array merge. A probe is an equality
    ([Peq], estimated by its exact B-tree key count) or a [Prange] that
    fuses all of a column's range conjuncts; it runs with the tightest
    bound on each side as one bounded {!Btree.range} walk, and is
    estimated by interpolating [max lo min_key, min hi max_key] over the
    index's key span. [on <calendar>] clauses are served by a single
    {!Btree.range_merge} sweep over the coalesced interval set, clipped to
    the range of a [Prange] on the valid-time column, which then runs no
    probe of its own.

    The original tree-walking interpreter survives as [`Interpreted] —
    the differential oracle for [test/test_plan.ml] and the baseline for
    bench E16 — upgraded only to pick the most selective sargable
    conjunct rather than the first. [~force_seq] disables candidate
    generation in either mode, which the differential suite uses to prove
    index scans and sequential scans return identical rows.

    The residual [where] predicate is always re-applied after an index
    probe, so inclusive-range probes, mixed-type bounds and skipped
    probes over-approximate safely. *)

type stats = {
  mutable scanned : int;  (** tuples touched *)
  mutable seq_scans : int;
  mutable index_scans : int;
  mutable index_probes : int;  (** individual B-tree probes / merged sweeps *)
  mutable plan_cache_hits : int;
  mutable plan_cache_misses : int;
}

let fresh_stats () =
  {
    scanned = 0;
    seq_scans = 0;
    index_scans = 0;
    index_probes = 0;
    plan_cache_hits = 0;
    plan_cache_misses = 0;
  }

type result =
  | Rows of { columns : string list; rows : Value.t array list }
  | Affected of int
  | Msg of string
  | Rule_def of Qast.rule  (** consumed by the rule manager upstream *)
  | Rule_drop of string

exception Exec_error of string

type mode = [ `Compiled | `Interpreted ]

(* Column binding for a tuple of [table]; falls back to [outer] (used for
   NEW/CURRENT bindings in rule actions). *)
let binding_of ~outer table tuple name =
  let schema = (table : Table.t).Table.schema in
  let resolve col = Option.map (fun i -> tuple.(i)) (Schema.column_index schema col) in
  let v =
    match String.index_opt name '.' with
    | Some i ->
      let prefix = String.sub name 0 i in
      let col = String.sub name (i + 1) (String.length name - i - 1) in
      if String.lowercase_ascii prefix = String.lowercase_ascii (Table.name table) then
        resolve col
      else None
    | None -> resolve name
  in
  match v with Some _ -> v | None -> outer name

let resolve_calendar catalog source =
  match (catalog : Catalog.t).Catalog.calendar_resolver with
  | Some f -> f source
  | None -> raise (Exec_error "no calendar resolver installed (on-clause unavailable)")

let where_not_boolean v = Exec_error ("where clause is not boolean: " ^ Value.to_string v)

(* --- aggregates (shared by both engines) --------------------------- *)

let run_aggregates targets value_rows =
  let agg_one col_idx (_, e) =
    match e with
    | Qexpr.Call (f, _) ->
      let values =
        List.filter_map
          (fun row ->
            match (row : Value.t array).(col_idx) with Value.Null -> None | v -> Some v)
          value_rows
      in
      let floats () = List.filter_map Value.as_float values in
      let v =
        match f with
        | "count" -> Value.Int (List.length values)
        | "sum" -> Value.Float (List.fold_left ( +. ) 0. (floats ()))
        | "avg" ->
          let fs = floats () in
          if fs = [] then Value.Null
          else Value.Float (List.fold_left ( +. ) 0. fs /. float_of_int (List.length fs))
        | "min" -> (
          match values with
          | [] -> Value.Null
          | v0 :: rest -> List.fold_left (fun a b -> if Value.compare b a < 0 then b else a) v0 rest)
        | "max" -> (
          match values with
          | [] -> Value.Null
          | v0 :: rest -> List.fold_left (fun a b -> if Value.compare b a > 0 then b else a) v0 rest)
        | _ -> assert false
      in
      v
    | _ -> (
      (* Non-aggregate target (a grouping column): take the value from the
         first member row. *)
      match value_rows with
      | row :: _ -> (row : Value.t array).(col_idx)
      | [] -> Value.Null)
  in
  [ Array.of_list (List.mapi agg_one targets) ]

(* ==================================================================
   Interpreted engine — the original tree-walking executor, kept as the
   differential oracle. Access-path selection now picks the most
   selective sargable conjunct instead of settling for the first.
   ================================================================== *)

(* Candidates from every indexed, sargable conjunct: col op const. The
   probe with the fewest rowids wins (an over-approximation; where is
   re-applied). *)
let index_candidates ~stats table where =
  let sargable e =
    match e with
    | Qexpr.Binop (op, Qexpr.Col c, Qexpr.Const v)
    | Qexpr.Binop (op, Qexpr.Const v, Qexpr.Col c) ->
      let flip =
        match e with Qexpr.Binop (_, Qexpr.Const _, Qexpr.Col _) -> true | _ -> false
      in
      Option.bind (Qplan.own_column table c) (fun col ->
          if not (Table.has_index table col) then None
          else
            let op =
              if not flip then op
              else
                match op with
                | Qexpr.Lt -> Qexpr.Gt
                | Qexpr.Le -> Qexpr.Ge
                | Qexpr.Gt -> Qexpr.Lt
                | Qexpr.Ge -> Qexpr.Le
                | other -> other
            in
            match op with
            | Qexpr.Eq | Qexpr.Lt | Qexpr.Le | Qexpr.Gt | Qexpr.Ge ->
              stats.index_probes <- stats.index_probes + 1;
              (match op with
              | Qexpr.Eq -> Table.index_lookup table col v
              | Qexpr.Lt | Qexpr.Le ->
                Option.map Array.to_list (Table.index_range table col ~hi:v ())
              | _ -> Option.map Array.to_list (Table.index_range table col ~lo:v ()))
            | _ -> None)
    | _ -> None
  in
  match where with
  | None -> None
  | Some where -> (
    match List.filter_map sargable (Qexpr.conjuncts where) with
    | [] -> None
    | first :: rest ->
      Some
        (List.fold_left
           (fun best c -> if List.length c < List.length best then c else best)
           first rest))

(* Candidates from the valid-time calendar clause, when the valid column
   is indexed: one index range probe per calendar interval. *)
let calendar_candidates ~stats table valid_col chronons =
  if not (Table.has_index table valid_col) then None
  else
    Some
      (Interval_set.fold
         (fun acc iv ->
           stats.index_probes <- stats.index_probes + 1;
           match
             Table.index_range table valid_col ~lo:(Value.Chronon (Interval.lo iv))
               ~hi:(Value.Chronon (Interval.hi iv)) ()
           with
           | Some rowids -> Array.fold_left (fun acc r -> r :: acc) acc rowids
           | None -> acc)
         [] chronons)

(* Matching row ids for a table given where + calendar clause. *)
let matching_rows catalog ~stats ~outer ~force_seq table where on_cal =
  let chronons = Option.map (resolve_calendar catalog) on_cal in
  let valid_col =
    match on_cal with
    | None -> None
    | Some _ -> (
      match Schema.valid_time_column (table : Table.t).Table.schema with
      | Some c -> Some c.Schema.name
      | None ->
        raise
          (Exec_error
             (Printf.sprintf "table %s has no valid-time column for the on-clause"
                (Table.name table))))
  in
  let candidates =
    if force_seq then None
    else
      let from_where = index_candidates ~stats table where in
      let from_cal =
        match (valid_col, chronons) with
        | Some col, Some set -> calendar_candidates ~stats table col set
        | _ -> None
      in
      match (from_where, from_cal) with
      | Some a, Some b ->
        (* Intersect the two candidate sets. *)
        let inb = Hashtbl.create (List.length b) in
        List.iter (fun r -> Hashtbl.replace inb r ()) b;
        Some (List.filter (Hashtbl.mem inb) a)
      | Some a, None -> Some a
      | None, Some b -> Some b
      | None, None -> None
  in
  let passes rowid tuple =
    stats.scanned <- stats.scanned + 1;
    ignore rowid;
    let binding = binding_of ~outer table tuple in
    let where_ok =
      match where with
      | None -> true
      | Some e -> (
        match Qexpr.eval ~catalog ~binding e with
        | Value.Bool b -> b
        | Value.Null -> false
        | v -> raise (where_not_boolean v))
    in
    let cal_ok =
      match (chronons, valid_col) with
      | Some set, Some col -> (
        match binding col with
        | Some (Value.Chronon c) -> Interval_set.contains_chronon set c
        | Some Value.Null | None -> false
        | Some v ->
          raise (Exec_error ("valid-time column is not a chronon: " ^ Value.to_string v)))
      | _ -> true
    in
    where_ok && cal_ok
  in
  match candidates with
  | Some rowids ->
    stats.index_scans <- stats.index_scans + 1;
    List.filter
      (fun rowid ->
        match Table.get table rowid with Some tuple -> passes rowid tuple | None -> false)
      (List.sort_uniq Int.compare rowids)
  | None ->
    stats.seq_scans <- stats.seq_scans + 1;
    List.rev
      (Table.fold table (fun acc rowid tuple -> if passes rowid tuple then rowid :: acc else acc) [])

let eval_assigns catalog ~binding assigns schema =
  let tuple = Array.make (Schema.arity schema) Value.Null in
  List.iter
    (fun (col, e) ->
      let i = Schema.column_index_exn schema col in
      tuple.(i) <- Qexpr.eval ~catalog ~binding e)
    assigns;
  tuple

let run_interpreted catalog ~outer ~stats ~force_seq (q : Qast.query) : result =
  match q with
  | Qast.Append { table; assigns } ->
    let tbl = Catalog.table catalog table in
    let tuple = eval_assigns catalog ~binding:outer assigns tbl.Table.schema in
    ignore (Table.insert tbl tuple);
    Catalog.fire catalog
      { Catalog.kind = Catalog.On_append; table = Table.name tbl; tuple = Some tuple };
    Affected 1
  | Qast.Retrieve { targets; from_ = None; where; on_cal = _; group_by = _ } ->
    (* Pure expression retrieve. *)
    let ok =
      match where with
      | None -> true
      | Some e -> (
        match Qexpr.eval ~catalog ~binding:outer e with
        | Value.Bool b -> b
        | Value.Null -> false
        | v -> raise (where_not_boolean v))
    in
    let rows =
      if ok then [ Array.of_list (List.map (fun (_, e) -> Qexpr.eval ~catalog ~binding:outer e) targets) ]
      else []
    in
    Rows { columns = List.map fst targets; rows }
  | Qast.Retrieve { targets; from_ = Some table; where; on_cal; group_by = [] } ->
    let tbl = Catalog.table catalog table in
    let rowids = matching_rows catalog ~stats ~outer ~force_seq tbl where on_cal in
    let aggregate =
      targets <> [] && List.for_all (fun (_, e) -> Qplan.is_aggregate_call e) targets
    in
    (* For aggregates evaluate the call's argument per row; otherwise the
       target expression itself. *)
    let per_row_exprs =
      List.map
        (fun (label, e) ->
          if aggregate then
            match e with
            | Qexpr.Call ("count", []) -> (label, Qexpr.Const (Value.Int 1))
            | Qexpr.Call (_, [ arg ]) -> (label, arg)
            | Qexpr.Call (f, args) ->
              raise
                (Exec_error
                   (Printf.sprintf "aggregate %s expects one argument, got %d" f
                      (List.length args)))
            | _ -> (label, e)
          else (label, e))
        targets
    in
    let value_rows =
      List.filter_map
        (fun rowid ->
          match Table.get tbl rowid with
          | None -> None
          | Some tuple ->
            Catalog.fire catalog
              { Catalog.kind = Catalog.On_retrieve; table = Table.name tbl; tuple = Some tuple };
            let binding = binding_of ~outer tbl tuple in
            Some
              (Array.of_list
                 (List.map (fun (_, e) -> Qexpr.eval ~catalog ~binding e) per_row_exprs)))
        rowids
    in
    let rows = if aggregate then run_aggregates targets value_rows else value_rows in
    Rows { columns = List.map fst targets; rows }
  | Qast.Retrieve { targets; from_ = Some table; where; on_cal; group_by } ->
    (* Grouped retrieval: every target must be either a grouping column or
       an aggregate call; one output row per distinct grouping key, in
       first-appearance order. *)
    let tbl = Catalog.table catalog table in
    let rowids = matching_rows catalog ~stats ~outer ~force_seq tbl where on_cal in
    List.iter
      (fun (label, e) ->
        match e with
        | Qexpr.Col c
          when List.mem
                 (match Qplan.own_column tbl c with Some col -> col | None -> c)
                 group_by ->
          ()
        | _ when Qplan.is_aggregate_call e -> ()
        | _ ->
          raise
            (Exec_error
               (Printf.sprintf "target %s must be a grouping column or an aggregate" label)))
      targets;
    let groups : (Value.t list, Value.t array list ref) Hashtbl.t = Hashtbl.create 16 in
    let order = ref [] in
    let per_row_exprs =
      List.map
        (fun (label, e) ->
          match e with
          | Qexpr.Call ("count", []) -> (label, Qexpr.Const (Value.Int 1))
          | Qexpr.Call (_, [ arg ]) when Qplan.is_aggregate_call e -> (label, arg)
          | _ -> (label, e))
        targets
    in
    List.iter
      (fun rowid ->
        match Table.get tbl rowid with
        | None -> ()
        | Some tuple ->
          Catalog.fire catalog
            { Catalog.kind = Catalog.On_retrieve; table = Table.name tbl; tuple = Some tuple };
          let binding = binding_of ~outer tbl tuple in
          let key =
            List.map
              (fun col ->
                match binding col with
                | Some v -> v
                | None -> raise (Exec_error ("unknown grouping column " ^ col)))
              group_by
          in
          let row =
            Array.of_list (List.map (fun (_, e) -> Qexpr.eval ~catalog ~binding e) per_row_exprs)
          in
          (match Hashtbl.find_opt groups key with
          | Some rows -> rows := row :: !rows
          | None ->
            order := key :: !order;
            Hashtbl.replace groups key (ref [ row ])))
      rowids;
    let rows =
      List.rev_map
        (fun key ->
          let members = List.rev !(Hashtbl.find groups key) in
          let agg_row = List.hd (run_aggregates targets members) in
          (* Grouping-column targets take the key's value rather than the
             (meaningless) aggregate over the column. *)
          List.iteri
            (fun i (_, e) ->
              match e with
              | Qexpr.Col _ -> agg_row.(i) <- (List.hd members).(i)
              | _ -> ())
            targets;
          agg_row)
        !order
    in
    Rows { columns = List.map fst targets; rows }
  | Qast.Delete { table; where } ->
    let tbl = Catalog.table catalog table in
    let rowids = matching_rows catalog ~stats ~outer ~force_seq tbl where None in
    List.iter
      (fun rowid ->
        match Table.get tbl rowid with
        | None -> ()
        | Some tuple ->
          ignore (Table.delete tbl rowid);
          Catalog.fire catalog
            { Catalog.kind = Catalog.On_delete; table = Table.name tbl; tuple = Some tuple })
      rowids;
    Affected (List.length rowids)
  | Qast.Replace { table; assigns; where } ->
    let tbl = Catalog.table catalog table in
    let rowids = matching_rows catalog ~stats ~outer ~force_seq tbl where None in
    List.iter
      (fun rowid ->
        match Table.get tbl rowid with
        | None -> ()
        | Some old ->
          let tuple = Array.copy old in
          let binding = binding_of ~outer tbl old in
          List.iter
            (fun (col, e) ->
              tuple.(Schema.column_index_exn tbl.Table.schema col) <-
                Qexpr.eval ~catalog ~binding e)
            assigns;
          ignore (Table.update tbl rowid tuple);
          Catalog.fire catalog
            { Catalog.kind = Catalog.On_replace; table = Table.name tbl; tuple = Some tuple })
      rowids;
    Affected (List.length rowids)
  | Qast.Create_table _ | Qast.Create_index _ | Qast.Define_rule _ | Qast.Drop_rule _ ->
    assert false (* handled by the dispatcher *)

(* ==================================================================
   Compiled engine
   ================================================================== *)

module Pool = Cal_parallel.Pool

(* Sorted, duplicate-free rowid array — the candidate-set representation
   intersections merge over. Sorts [a] in place (callers pass a fresh
   array) and drops repeats. Rowids are non-negative, so an LSD radix
   sort over bytes, as many passes as the largest rowid needs, orders
   them in O(n) with no comparison closures. *)
let sort_rowids (a : int array) =
  let n = Array.length a in
  let top = ref 0 in
  for i = 0 to n - 1 do
    if a.(i) > !top then top := a.(i)
  done;
  let src = ref a and dst = ref (Array.make n 0) in
  (* 256 words: small enough for the minor heap *)
  let count = Array.make 256 0 and shift = ref 0 in
  while !shift < Sys.int_size && !top lsr !shift > 0 do
    let s = !src and d = !dst and sh = !shift in
    Array.fill count 0 256 0;
    for i = 0 to n - 1 do
      let b = (s.(i) lsr sh) land 255 in
      count.(b) <- count.(b) + 1
    done;
    (* bucket counts -> first output slot of each bucket *)
    let start = ref 0 in
    for b = 0 to 255 do
      let c = count.(b) in
      count.(b) <- !start;
      start := !start + c
    done;
    for i = 0 to n - 1 do
      let b = (s.(i) lsr sh) land 255 in
      d.(count.(b)) <- s.(i);
      count.(b) <- count.(b) + 1
    done;
    src := d;
    dst := s;
    shift := sh + 8
  done;
  let s = !src and k = ref 0 in
  for i = 0 to n - 1 do
    if !k = 0 || s.(i) <> s.(!k - 1) then begin
      s.(!k) <- s.(i);
      incr k
    end
  done;
  if !k = n then s else Array.sub s 0 !k

(* O(n+m) sorted-array intersection (the Interval_set merge idiom). *)
let inter_sorted a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (min la lb) 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < la && !j < lb do
    let c = Int.compare a.(!i) b.(!j) in
    if c = 0 then begin
      out.(!k) <- a.(!i);
      incr k;
      incr i;
      incr j
    end
    else if c < 0 then incr i
    else incr j
  done;
  Array.sub out 0 !k

let key_float = function
  | Value.Int i -> Some (float_of_int i)
  | Value.Float f -> Some f
  | Value.Chronon c -> Some (float_of_int (Chronon.to_offset c))
  | _ -> None

(* Estimated result size of one probe over run-time bounds [lo, hi].
   Equality probes are exact (the B-tree's rowid list length); a range
   interpolates [max lo min_key, min hi max_key] over the index's
   [min_key, max_key] span, scaled to the table's rows. Non-numeric key
   spaces pessimistically estimate the whole table. *)
let estimate_probe tbl (p : Qplan.probe) lo hi =
  match (Table.index tbl p.Qplan.pcol, p.Qplan.pop, lo) with
  | None, _, _ -> max_int
  | Some idx, Qplan.Peq _, Some v -> List.length (Btree.find idx v)
  | Some idx, _, _ -> (
    let nrows = Table.count tbl in
    match (Btree.min_key idx, Btree.max_key idx) with
    | Some kmin, Some kmax -> (
      let bound b k = key_float (Option.value b ~default:k) in
      match (key_float kmin, key_float kmax, bound lo kmin, bound hi kmax) with
      | Some kl, Some kh, Some l, Some h when kh > kl ->
        let l = Float.max l kl and h = Float.min h kh in
        if l > h then 0
        else int_of_float (Float.ceil ((h -. l) /. (kh -. kl) *. float_of_int nrows))
      | _ -> nrows)
    | _ -> 0)

(* A probe's run-time key range: [v, v] for an equality; for a range,
   the tightest bound on each side, the greatest lower and the least
   upper bound in [Value.compare] order. Plans keep every bound as an
   operand (constants stay parameters, so the plan cache is unaffected)
   and each run picks. *)
let probe_bounds params (p : Qplan.probe) =
  let tightest keep = function
    | [] -> None
    | e :: rest ->
      Some
        (List.fold_left
           (fun best e ->
             let v = Qplan.probe_value params e in
             if keep (Value.compare v best) then v else best)
           (Qplan.probe_value params e) rest)
  in
  match p.Qplan.pop with
  | Qplan.Peq arg ->
    let v = Qplan.probe_value params arg in
    (Some v, Some v)
  | Qplan.Prange { lo; hi } -> (tightest (fun c -> c > 0) lo, tightest (fun c -> c < 0) hi)

(* Execute the sargable probes worth their cost: cheapest estimate first,
   each further probe only while its estimate undercuts the running
   candidate set (skipping is sound — the residual where re-applies).
   Every probe is one bounded B-tree walk. *)
let run_probes ~stats tbl params (probes : Qplan.probe list) : int array option =
  match probes with
  | [] -> None
  | probes -> (
    let nrows = Table.count tbl in
    let ranked =
      List.sort
        (fun (a, _, _) (b, _, _) -> Int.compare a b)
        (List.map
           (fun (p : Qplan.probe) ->
             let lo, hi = probe_bounds params p in
             (estimate_probe tbl p lo hi, p, (lo, hi)))
           probes)
    in
    let exec_probe (p : Qplan.probe) (lo, hi) =
      stats.index_probes <- stats.index_probes + 1;
      match Table.index_range tbl p.Qplan.pcol ?lo ?hi () with
      | Some rowids -> sort_rowids rowids
      | None -> [||]
    in
    match ranked with
    | (best, p0, b0) :: rest
      when best < nrows || (match p0.Qplan.pop with Qplan.Peq _ -> true | _ -> false) ->
      let acc = ref (exec_probe p0 b0) in
      List.iter
        (fun (est, p, b) ->
          if Array.length !acc > 0 && est < Array.length !acc then
            acc := inter_sorted !acc (exec_probe p b))
        rest;
      Some !acc
    | _ ->
      (* Even the cheapest probe would touch everything: scan instead. *)
      None)

(* [segs] (sorted, disjoint, flat [lo0; hi0; ...] chronon ranges) cut
   down to [lo, hi]. *)
let clip_segments segs lo hi =
  let n = Array.length segs / 2 in
  (* first range ending at or after [lo] *)
  let a = ref 0 and b = ref n in
  while !a < !b do
    let m = (!a + !b) / 2 in
    if segs.((2 * m) + 1) < lo then a := m + 1 else b := m
  done;
  let last = ref !a in
  while !last < n && segs.(2 * !last) <= hi do
    incr last
  done;
  let k = !last - !a in
  if lo > hi || k = 0 then [||]
  else begin
    let out = Array.sub segs (2 * !a) (2 * k) in
    out.(0) <- max out.(0) lo;
    out.((2 * k) - 1) <- min out.((2 * k) - 1) hi;
    out
  end

(* A range bound as a chronon for a sweep that only yields chronon keys:
   a bound of a type ranked below chronons (NULL, numbers) admits every
   chronon, one ranked above admits none. *)
let chronon_bound ~default = function
  | None -> default
  | Some (Value.Chronon c) -> c
  | Some v -> if Value.compare v (Value.Chronon 0) < 0 then min_int else max_int

(* The whole on-calendar clause in one merged B-tree sweep over the
   set's coalesced segments (shared with the resolved-day memo, so a warm
   calendar is neither re-coalesced nor copied). A range probe on the
   valid-time column clips the segments instead of running on its own,
   so [where day between ... on <cal>] stays one sweep; the remaining
   probes are returned for the caller to run. *)
let merged_calendar_candidates ~stats tbl params col set probes =
  if not (Table.has_index tbl col) then (None, probes)
  else begin
    stats.index_probes <- stats.index_probes + 1;
    let clip, rest =
      List.partition
        (fun (p : Qplan.probe) ->
          p.Qplan.pcol = col && match p.Qplan.pop with Qplan.Prange _ -> true | _ -> false)
        probes
    in
    let segs =
      List.fold_left
        (fun segs (p : Qplan.probe) ->
          let lo, hi = probe_bounds params p in
          clip_segments segs
            (chronon_bound ~default:min_int lo)
            (chronon_bound ~default:max_int hi))
        (Interval_set.segments set) clip
    in
    (Option.map sort_rowids (Table.index_merge tbl col segs), rest)
  end

(* Sequential scans over at least this many row slots are eligible for
   domain partitioning; smaller tables are not worth the dispatch. The
   determinism tests lower it to 0 to exercise the parallel path on
   small random tables. *)
let parallel_scan_threshold = ref 4096

(* Matching rowids under a compiled scan, ascending (same order as the
   interpreted engine, so differential comparisons are exact).

   When no index candidates apply, the predicate is pure ([spure]) and
   the table is large enough, the sequential scan splits the rowid range
   [0, high_water) into one contiguous chunk per pool lane. Chunks only
   read: tuples, the params/outer vectors and the resolved interval set
   are all immutable during the scan, and per-chunk scan counters merge
   into [stats] after the join. Concatenating the per-chunk rowid lists
   in chunk order reproduces the serial ascending order exactly; a
   predicate that raises does so first in the lowest failing chunk,
   which is the same row a serial scan would have failed on. *)
(* Plans are portable across a live catalog and its snapshots: a plan
   records the table it was built against, but execution re-resolves it
   by name in the catalog it runs under. Sound because a plan only runs
   when its version stamp matches the catalog's, and a snapshot carries
   the version (and thus schema and index set) of the catalog it froze. *)
let plan_table catalog (tbl : Table.t) = Catalog.table catalog (Table.name tbl)

let scan_rowids catalog ~stats ~force_seq ~domains ~params ~outer_env (scan : Qplan.scan) :
    int list =
  let tbl = plan_table catalog scan.Qplan.stable in
  let chronons = Option.map (resolve_calendar catalog) scan.Qplan.scal in
  let from_where, from_cal =
    if force_seq then (None, None)
    else
      let from_cal, probes =
        match (chronons, scan.Qplan.svalid_col) with
        | Some set, Some col ->
          merged_calendar_candidates ~stats tbl params col set scan.Qplan.sprobes
        | _ -> (None, scan.Qplan.sprobes)
      in
      (run_probes ~stats tbl params probes, from_cal)
  in
  let candidates =
    match (from_where, from_cal) with
    | Some a, Some b -> Some (inter_sorted a b)
    | (Some _ as x), None | None, (Some _ as x) -> x
    | None, None -> None
  in
  (* The calendar sweep is exact: rows it yields hold a chronon inside
     the calendar, so only rows it did not choose need the check. *)
  let cal_check = if Option.is_some from_cal then None else chronons in
  let where_pred = Option.map (Qcompile.as_predicate ~fail:where_not_boolean) scan.Qplan.swhere in
  (* Pure w.r.t. [stats]; counting is the caller's business. *)
  let passes tuple =
    (match where_pred with None -> true | Some p -> p params outer_env tuple)
    &&
    match (cal_check, scan.Qplan.svalid_ix) with
    | Some set, Some vi -> (
      match tuple.(vi) with
      | Value.Chronon c -> Interval_set.contains_chronon set c
      | Value.Null -> false
      | v -> raise (Exec_error ("valid-time column is not a chronon: " ^ Value.to_string v)))
    | _ -> true
  in
  match candidates with
  | Some rowids ->
    stats.index_scans <- stats.index_scans + 1;
    let hits = ref [] in
    Array.iter
      (fun rowid ->
        match Table.get tbl rowid with
        | Some t ->
          stats.scanned <- stats.scanned + 1;
          if passes t then hits := rowid :: !hits
        | None -> ())
      rowids;
    List.rev !hits
  | None -> (
    stats.seq_scans <- stats.seq_scans + 1;
    let pool = Pool.default () in
    let lanes = max 1 (min domains (Pool.size pool)) in
    let hw = Table.high_water tbl in
    if lanes > 1 && scan.Qplan.spure && hw >= !parallel_scan_threshold then begin
      let parts =
        Pool.map_chunks ~domains:lanes pool ~n:hw (fun ~lo ~hi ->
            let hits = ref [] and touched = ref 0 in
            Table.iter_range tbl ~lo ~hi (fun rowid tuple ->
                incr touched;
                if passes tuple then hits := rowid :: !hits);
            (List.rev !hits, !touched))
      in
      Array.iter (fun (_, touched) -> stats.scanned <- stats.scanned + touched) parts;
      List.concat (List.map fst (Array.to_list parts))
    end
    else
      List.rev
        (Table.fold tbl
           (fun acc rowid t ->
             stats.scanned <- stats.scanned + 1;
             if passes t then rowid :: acc else acc)
           []))

let assign_index schema (a : Qplan.assign) =
  match a.Qplan.aix with
  | Some i -> i
  | None -> Schema.column_index_exn schema a.Qplan.acol

(* Execute an already-prepared plan. Split out of {!run_compiled} so
   same-shape statements (e.g. a DBCRON batch of identical rule actions)
   can prepare once and execute many times without re-entering the plan
   cache. *)
let exec_plan catalog ~outer ~stats ~force_seq ~domains (plan : Qplan.plan) params : result =
  (* Materialize the outer (NEW/CURRENT) environment once per run; the
     compiled closures index it by slot instead of probing per row. *)
  let outer_env = Qcompile.bind_outer ~outer_cols:plan.Qplan.outer outer in
  match plan.Qplan.action with
  | Qplan.P_expr_retrieve { labels; pwhere; ptargets } ->
    let ok =
      match pwhere with
      | None -> true
      | Some c -> Qcompile.as_predicate ~fail:where_not_boolean c params outer_env [||]
    in
    let rows =
      if ok then [ Array.of_list (List.map (fun c -> c params outer_env [||]) ptargets) ]
      else []
    in
    Rows { columns = labels; rows }
  | Qplan.P_scan_retrieve { labels; scan; per_row; raw_targets; aggregate; group_by = []; _ } ->
    let tbl = plan_table catalog scan.Qplan.stable in
    let rowids = scan_rowids catalog ~stats ~force_seq ~domains ~params ~outer_env scan in
    let value_rows =
      List.filter_map
        (fun rowid ->
          match Table.get tbl rowid with
          | None -> None
          | Some tuple ->
            Catalog.fire catalog
              { Catalog.kind = Catalog.On_retrieve; table = Table.name tbl; tuple = Some tuple };
            Some (Array.of_list (List.map (fun c -> c params outer_env tuple) per_row)))
        rowids
    in
    let rows = if aggregate then run_aggregates raw_targets value_rows else value_rows in
    Rows { columns = labels; rows }
  | Qplan.P_scan_retrieve { labels; scan; per_row; raw_targets; group_by; group_codes; _ } ->
    let tbl = plan_table catalog scan.Qplan.stable in
    let rowids = scan_rowids catalog ~stats ~force_seq ~domains ~params ~outer_env scan in
    let groups : (Value.t list, Value.t array list ref) Hashtbl.t = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (fun rowid ->
        match Table.get tbl rowid with
        | None -> ()
        | Some tuple ->
          Catalog.fire catalog
            { Catalog.kind = Catalog.On_retrieve; table = Table.name tbl; tuple = Some tuple };
          let key = List.map (fun c -> c params outer_env tuple) group_codes in
          let row = Array.of_list (List.map (fun c -> c params outer_env tuple) per_row) in
          (match Hashtbl.find_opt groups key with
          | Some rows -> rows := row :: !rows
          | None ->
            order := key :: !order;
            Hashtbl.replace groups key (ref [ row ])))
      rowids;
    ignore group_by;
    let rows =
      List.rev_map
        (fun key ->
          let members = List.rev !(Hashtbl.find groups key) in
          let agg_row = List.hd (run_aggregates raw_targets members) in
          List.iteri
            (fun i (_, e) ->
              match e with
              | Qexpr.Col _ -> agg_row.(i) <- (List.hd members).(i)
              | _ -> ())
            raw_targets;
          agg_row)
        !order
    in
    Rows { columns = labels; rows }
  | Qplan.P_delete { scan } ->
    let tbl = plan_table catalog scan.Qplan.stable in
    let rowids = scan_rowids catalog ~stats ~force_seq ~domains ~params ~outer_env scan in
    List.iter
      (fun rowid ->
        match Table.get tbl rowid with
        | None -> ()
        | Some tuple ->
          ignore (Table.delete tbl rowid);
          Catalog.fire catalog
            { Catalog.kind = Catalog.On_delete; table = Table.name tbl; tuple = Some tuple })
      rowids;
    Affected (List.length rowids)
  | Qplan.P_replace { scan; rassigns } ->
    let tbl = plan_table catalog scan.Qplan.stable in
    let schema = tbl.Table.schema in
    let rowids = scan_rowids catalog ~stats ~force_seq ~domains ~params ~outer_env scan in
    List.iter
      (fun rowid ->
        match Table.get tbl rowid with
        | None -> ()
        | Some old ->
          let tuple = Array.copy old in
          List.iter
            (fun (a : Qplan.assign) ->
              tuple.(assign_index schema a) <- a.Qplan.acode params outer_env old)
            rassigns;
          ignore (Table.update tbl rowid tuple);
          Catalog.fire catalog
            { Catalog.kind = Catalog.On_replace; table = Table.name tbl; tuple = Some tuple })
      rowids;
    Affected (List.length rowids)
  | Qplan.P_append { atable; aassigns } ->
    let atable = plan_table catalog atable in
    let schema = atable.Table.schema in
    let tuple = Array.make (Schema.arity schema) Value.Null in
    List.iter
      (fun (a : Qplan.assign) ->
        tuple.(assign_index schema a) <- a.Qplan.acode params outer_env [||])
      aassigns;
    ignore (Table.insert atable tuple);
    Catalog.fire catalog
      { Catalog.kind = Catalog.On_append; table = Table.name atable; tuple = Some tuple };
    Affected 1

let run_compiled catalog ~outer ~stats ~force_seq ~domains (q : Qast.query) : result =
  let plan, params, hit =
    try Qplan.prepare catalog q with Qplan.Plan_error m -> raise (Exec_error m)
  in
  if hit then stats.plan_cache_hits <- stats.plan_cache_hits + 1
  else stats.plan_cache_misses <- stats.plan_cache_misses + 1;
  exec_plan catalog ~outer ~stats ~force_seq ~domains plan params

(* --- dispatcher ---------------------------------------------------- *)

let run catalog ?(binding = fun _ -> None) ?stats ?(mode : mode = `Compiled)
    ?(force_seq = false) ?domains ?(injector = Cal_faults.Injector.none) (q : Qast.query) :
    result =
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  let domains = match domains with Some d -> max 1 d | None -> Pool.default_domains () in
  let outer = binding in
  (* Fault-injection hook: an armed injector fails mutations before they
     touch the heap, so injected faults never leave partial updates. *)
  (match q with
  | Qast.Append _ | Qast.Delete _ | Qast.Replace _ -> (
    match Cal_faults.Injector.exec_fault injector with
    | Some msg -> raise (Exec_error msg)
    | None -> ())
  | _ -> ());
  match q with
  | Qast.Create_table { name; cols } ->
    let columns =
      List.map (fun (name, ty, valid) -> { Schema.name; ty; valid_time = valid }) cols
    in
    ignore (Catalog.create_table catalog (Schema.make ~table:name columns));
    Msg (Printf.sprintf "table %s created" name)
  | Qast.Create_index { table; col } ->
    (* Goes through the catalog so the version bump invalidates plans
       compiled against the old access paths. *)
    Catalog.create_index catalog table col;
    Msg (Printf.sprintf "index created on %s(%s)" table col)
  | Qast.Define_rule r -> Rule_def r
  | Qast.Drop_rule name -> Rule_drop name
  | Qast.Append _ | Qast.Retrieve _ | Qast.Delete _ | Qast.Replace _ -> (
    match mode with
    | `Interpreted -> run_interpreted catalog ~outer ~stats ~force_seq q
    | `Compiled -> run_compiled catalog ~outer ~stats ~force_seq ~domains q)

(* --- prepared statements ------------------------------------------- *)

type prepared = { pq : Qast.query; pplan : Qplan.plan; pparams : Value.t array }

(* One trip through the plan cache; the result replays without another.
   [None] for statements that have no cacheable plan (DDL, rules). *)
let prepare catalog ?stats (q : Qast.query) =
  match q with
  | Qast.Append _ | Qast.Retrieve _ | Qast.Delete _ | Qast.Replace _ -> (
    match Qplan.prepare catalog q with
    | plan, params, hit ->
      (match stats with
      | Some s ->
        if hit then s.plan_cache_hits <- s.plan_cache_hits + 1
        else s.plan_cache_misses <- s.plan_cache_misses + 1
      | None -> ());
      Some { pq = q; pplan = plan; pparams = params }
    | exception Qplan.Plan_error _ -> None)
  | _ -> None

let run_prepared catalog ?(binding = fun _ -> None) ?stats ?(force_seq = false) ?domains
    ?(injector = Cal_faults.Injector.none) p : result =
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  let domains = match domains with Some d -> max 1 d | None -> Pool.default_domains () in
  if p.pplan.Qplan.pversion = catalog.Catalog.version then begin
    (* The same pre-execution fault gate as {!run}, keyed off the plan's
       action since the statement kind is already compiled away. *)
    (match p.pplan.Qplan.action with
    | Qplan.P_append _ | Qplan.P_delete _ | Qplan.P_replace _ -> (
      match Cal_faults.Injector.exec_fault injector with
      | Some msg -> raise (Exec_error msg)
      | None -> ())
    | Qplan.P_expr_retrieve _ | Qplan.P_scan_retrieve _ -> ());
    exec_plan catalog ~outer:binding ~stats ~force_seq ~domains p.pplan p.pparams
  end
  else
    (* DDL since preparation: fall back to the full path, which replans
       against the current catalog version (and runs its own fault
       gate). *)
    run catalog ~binding ~stats ~force_seq ~domains ~injector p.pq

(* Execution exceptions rendered as [Error _], shared by every
   parse-and-run entry point. *)
let catching f =
  match f () with
  | r -> Ok r
  | exception Exec_error e -> Error e
  | exception Catalog.No_such_table t -> Error ("no such table: " ^ t)
  | exception Catalog.No_such_operator o -> Error ("no such operator: " ^ o)
  | exception Catalog.Table_exists t -> Error ("table already exists: " ^ t)
  | exception Schema.Schema_error e -> Error e
  | exception Qexpr.Eval_error e -> Error e
  | exception Table.No_such_column c -> Error ("no such column: " ^ c)

(** Parse and run. *)
let run_string catalog ?binding ?stats ?mode ?force_seq ?domains ?injector input =
  match Qparser.query input with
  | Error e -> Error e
  | Ok q -> catching (fun () -> run catalog ?binding ?stats ?mode ?force_seq ?domains ?injector q)

(* --- snapshot reads ------------------------------------------------- *)

let rec expr_pure e =
  match e with
  | Qexpr.Col _ | Qexpr.Const _ | Qexpr.Param _ -> true
  | Qexpr.Binop (_, a, b) -> expr_pure a && expr_pure b
  | Qexpr.Not e | Qexpr.Neg e -> expr_pure e
  | Qexpr.Call (_, args) -> Qplan.is_aggregate_call e && List.for_all expr_pure args

(* A retrieve is pure when evaluating it cannot touch shared mutable
   state: no [on <calendar>] clause (the resolver consults the session's
   calendar cache) and no operator calls other than the built-in
   aggregates (registered operators may mutate or read session state).
   Pure reads against a snapshot need no locks at all. *)
let read_is_pure (q : Qast.query) =
  match q with
  | Qast.Retrieve { targets; where; on_cal; _ } ->
    on_cal = None
    && List.for_all (fun (_, e) -> expr_pure e) targets
    && (match where with None -> true | Some w -> expr_pure w)
  | _ -> false

(** Parse and run a retrieve-only statement — the snapshot read path.
    Non-retrieve statements are rejected with [Error _] before touching
    the catalog. [domains] defaults to 1: snapshot reads already get
    their parallelism from running many queries across reader lanes, and
    the pool must only be driven from its owning thread. *)
let run_read catalog ?stats ?(domains = 1) input =
  match Qparser.query input with
  | Error e -> Error e
  | Ok (Qast.Retrieve _ as q) -> catching (fun () -> run catalog ?stats ~domains q)
  | Ok q -> Error ("read-only: not a retrieve statement: " ^ Qast.to_string q)
