(** Query plans and the plan cache.

    A DML query is canonicalized by extracting every literal constant into
    a parameter vector ({!parameterize_query}), so the rule-action queries
    DBCRON fires thousands of times per simulated year — identical except
    for a shifting probe window or appended value — share one plan. The
    parameterized skeleton itself keys an LRU cache stored in the catalog;
    plans are stamped with {!Catalog.version} and silently discarded when
    DDL (create/drop table, create index, operator registration) bumps it.

    A plan carries compiled target/where/assignment closures
    ({!Qcompile.code}) plus the access-path ingredients the executor
    needs: every sargable probe of the where clause and the valid-time
    column of an [on <calendar>] scan. Probe selection and execution live
    in {!Exec}. *)

exception Plan_error of string

(* --- canonicalization ---------------------------------------------- *)

let parameterize_expr out e =
  let rec go e =
    match e with
    | Qexpr.Const v ->
      let i = List.length !out in
      out := v :: !out;
      Qexpr.Param i
    | Qexpr.Col _ | Qexpr.Param _ -> e
    | Qexpr.Binop (op, a, b) ->
      let a = go a in
      let b = go b in
      Qexpr.Binop (op, a, b)
    | Qexpr.Not e -> Qexpr.Not (go e)
    | Qexpr.Neg e -> Qexpr.Neg (go e)
    | Qexpr.Call (f, args) -> Qexpr.Call (f, List.map go args)
  in
  go e

(** [parameterize_query q] replaces every [Const] of a DML query with a
    [Param] slot, returning the skeleton and the extracted constants in
    slot order. [None] for DDL / rule definitions, which are not worth
    caching. *)
let parameterize_query (q : Qast.query) : (Qast.query * Value.t array) option =
  let out = ref [] in
  let expr e = parameterize_expr out e in
  let assigns l = List.map (fun (c, e) -> (c, expr e)) l in
  let skeleton =
    match q with
    | Qast.Append { table; assigns = a } -> Some (Qast.Append { table; assigns = assigns a })
    | Qast.Retrieve { targets; from_; where; on_cal; group_by } ->
      let targets = List.map (fun (l, e) -> (l, expr e)) targets in
      let where = Option.map expr where in
      Some (Qast.Retrieve { targets; from_; where; on_cal; group_by })
    | Qast.Delete { table; where } ->
      Some (Qast.Delete { table; where = Option.map expr where })
    | Qast.Replace { table; assigns = a; where } ->
      let a = assigns a in
      Some (Qast.Replace { table; assigns = a; where = Option.map expr where })
    | Qast.Create_table _ | Qast.Create_index _ | Qast.Define_rule _ | Qast.Drop_rule _ -> None
  in
  match skeleton with
  | None -> None
  | Some sk -> Some (sk, Array.of_list (List.rev !out))

(** Resolve a [Const]-or-[Param] plan operand against the parameter
    vector. *)
let probe_value params = function
  | Qexpr.Const v -> v
  | Qexpr.Param i -> params.(i)
  | e -> raise (Plan_error ("not a plan operand: " ^ Qexpr.to_string e))

(* --- plan structure ------------------------------------------------ *)

type probe_op =
  | Peq of Qexpr.t
  | Prange of { lo : Qexpr.t list; hi : Qexpr.t list }
      (** all of one column's range bounds; [Lt]/[Gt] widen to the
          inclusive form and the residual where re-applies them *)

type probe = {
  pcol : string;  (** unqualified column name, indexed at plan time *)
  pop : probe_op;
}

type scan = {
  stable : Table.t;
  swhere : Qcompile.code option;  (** full residual predicate *)
  sprobes : probe list;  (** every sargable conjunct of the where clause *)
  scal : string option;  (** [on <calendar>] source text *)
  svalid_ix : int option;  (** tuple offset of the valid-time column *)
  svalid_col : string option;
  spure : bool;
      (** the where clause contains no operator calls, so evaluating it
          cannot touch shared mutable state (registered operators may
          mutate — [alert] — or consult the non-thread-safe calendar
          cache); only pure scans are eligible for domain partitioning *)
}

type assign = {
  acol : string;
  aix : int option;
      (** tuple offset; [None] defers the unknown-column error to
          execution, matching the interpreter's timing *)
  acode : Qcompile.code;
}

type action =
  | P_expr_retrieve of {
      labels : string list;
      pwhere : Qcompile.code option;
      ptargets : Qcompile.code list;
    }
  | P_scan_retrieve of {
      labels : string list;
      scan : scan;
      per_row : Qcompile.code list;
          (** target exprs with aggregate calls rewritten to their
              argument ([count()] to the constant 1) *)
      raw_targets : (string * Qexpr.t) list;  (** for aggregate dispatch *)
      aggregate : bool;
      group_by : string list;
      group_codes : Qcompile.code list;
    }
  | P_delete of { scan : scan }
  | P_replace of { scan : scan; rassigns : assign list }
  | P_append of { atable : Table.t; aassigns : assign list }

type plan = {
  pversion : int;  (** catalog version the plan was built under *)
  outer : string array;  (** interned free columns, in slot order *)
  action : action;
}

(* --- plan construction --------------------------------------------- *)

let aggregates = [ "count"; "sum"; "avg"; "min"; "max" ]

let is_aggregate_call = function
  | Qexpr.Call (f, _) -> List.mem f aggregates
  | _ -> false

(* Strip an optional "table." qualifier if it names this table. *)
let own_column table name =
  match String.index_opt name '.' with
  | Some i ->
    let prefix = String.sub name 0 i in
    if String.lowercase_ascii prefix = String.lowercase_ascii (Table.name table) then
      Some (String.sub name (i + 1) (String.length name - i - 1))
    else None
  | None -> Some name

(* The sargable conjuncts, [col op operand] over an indexed column in
   either orientation: one [Peq] per equality, and every range conjunct
   on a column fused into that column's single [Prange]. The executor
   ranks the probes by estimated selectivity and intersects the candidate
   sets it decides to materialize. *)
let probes_of table where =
  let sargable e =
    let side ~flip = function
      | Qexpr.Eq -> Some `Eq
      | Qexpr.Gt | Qexpr.Ge -> Some (if flip then `Hi else `Lo)
      | Qexpr.Lt | Qexpr.Le -> Some (if flip then `Lo else `Hi)
      | _ -> None
    in
    let mk ~flip op c arg =
      Option.bind (side ~flip op) (fun side ->
          Option.bind (own_column table c) (fun col ->
              if Table.has_index table col then Some (col, side, arg) else None))
    in
    match e with
    | Qexpr.Binop (op, Qexpr.Col c, ((Qexpr.Const _ | Qexpr.Param _) as arg)) ->
      mk ~flip:false op c arg
    | Qexpr.Binop (op, ((Qexpr.Const _ | Qexpr.Param _) as arg), Qexpr.Col c) ->
      mk ~flip:true op c arg
    | _ -> None
  in
  let conj =
    match where with
    | None -> []
    | Some where -> List.filter_map sargable (Qexpr.conjuncts where)
  in
  let bounds col side =
    List.filter_map (fun (c, s, arg) -> if c = col && s = side then Some arg else None) conj
  in
  List.filter_map
    (fun (col, s, arg) -> if s = `Eq then Some { pcol = col; pop = Peq arg } else None)
    conj
  @ List.map
      (fun col -> { pcol = col; pop = Prange { lo = bounds col `Lo; hi = bounds col `Hi } })
      (List.sort_uniq String.compare
         (List.filter_map (fun (col, s, _) -> if s = `Eq then None else Some col) conj))

let build_scan env tbl where on_cal =
  let svalid_ix, svalid_col =
    match on_cal with
    | None -> (None, None)
    | Some _ -> (
      match Schema.valid_time_column (tbl : Table.t).Table.schema with
      | Some c ->
        ( Some (Schema.column_index_exn tbl.Table.schema c.Schema.name),
          Some c.Schema.name )
      | None ->
        raise
          (Plan_error
             (Printf.sprintf "table %s has no valid-time column for the on-clause"
                (Table.name tbl))))
  in
  let rec pure = function
    | Qexpr.Call _ -> false
    | Qexpr.Col _ | Qexpr.Const _ | Qexpr.Param _ -> true
    | Qexpr.Binop (_, a, b) -> pure a && pure b
    | Qexpr.Not e | Qexpr.Neg e -> pure e
  in
  {
    stable = tbl;
    swhere = Option.map (Qcompile.compile env) where;
    sprobes = probes_of tbl where;
    scal = on_cal;
    svalid_ix;
    svalid_col;
    spure = (match where with None -> true | Some w -> pure w);
  }

let build_assigns env schema assigns =
  List.map
    (fun (col, e) ->
      { acol = col; aix = Schema.column_index schema col; acode = Qcompile.compile env e })
    assigns

let build catalog (q : Qast.query) : plan =
  let pversion = (catalog : Catalog.t).Catalog.version in
  let finish env action = { pversion; outer = Qcompile.outer_cols env; action } in
  match q with
  | Qast.Append { table; assigns } ->
    let tbl = Catalog.table catalog table in
    (* Assignments never see the target table's columns — only the outer
       (NEW/CURRENT) environment — so compile without a schema. *)
    let env = Qcompile.make_env ~catalog () in
    finish env (P_append { atable = tbl; aassigns = build_assigns env tbl.Table.schema assigns })
  | Qast.Retrieve { targets; from_ = None; where; on_cal = _; group_by = _ } ->
    let env = Qcompile.make_env ~catalog () in
    let pwhere = Option.map (Qcompile.compile env) where in
    let ptargets = List.map (fun (_, e) -> Qcompile.compile env e) targets in
    finish env (P_expr_retrieve { labels = List.map fst targets; pwhere; ptargets })
  | Qast.Retrieve { targets; from_ = Some table; where; on_cal; group_by } ->
    let tbl = Catalog.table catalog table in
    let env = Qcompile.make_env ~catalog ~table:tbl () in
    let scan = build_scan env tbl where on_cal in
    let grouped = group_by <> [] in
    if grouped then
      List.iter
        (fun (label, e) ->
          match e with
          | Qexpr.Col c
            when List.mem (match own_column tbl c with Some col -> col | None -> c) group_by
            ->
            ()
          | _ when is_aggregate_call e -> ()
          | _ ->
            raise
              (Plan_error
                 (Printf.sprintf "target %s must be a grouping column or an aggregate" label)))
        targets;
    let aggregate =
      (not grouped) && targets <> [] && List.for_all (fun (_, e) -> is_aggregate_call e) targets
    in
    let per_row =
      List.map
        (fun (_, e) ->
          let e =
            match e with
            | Qexpr.Call ("count", []) when aggregate || grouped -> Qexpr.Const (Value.Int 1)
            | Qexpr.Call (_, [ arg ]) when aggregate || (grouped && is_aggregate_call e) -> arg
            | Qexpr.Call (f, args) when aggregate ->
              raise
                (Plan_error
                   (Printf.sprintf "aggregate %s expects one argument, got %d" f
                      (List.length args)))
            | _ -> e
          in
          Qcompile.compile env e)
        targets
    in
    let group_codes = List.map (fun c -> Qcompile.compile env (Qexpr.Col c)) group_by in
    finish env
      (P_scan_retrieve
         {
           labels = List.map fst targets;
           scan;
           per_row;
           raw_targets = targets;
           aggregate;
           group_by;
           group_codes;
         })
  | Qast.Delete { table; where } ->
    let tbl = Catalog.table catalog table in
    let env = Qcompile.make_env ~catalog ~table:tbl () in
    finish env (P_delete { scan = build_scan env tbl where None })
  | Qast.Replace { table; assigns; where } ->
    let tbl = Catalog.table catalog table in
    let env = Qcompile.make_env ~catalog ~table:tbl () in
    let scan = build_scan env tbl where None in
    finish env (P_replace { scan; rassigns = build_assigns env tbl.Table.schema assigns })
  | Qast.Create_table _ | Qast.Create_index _ | Qast.Define_rule _ | Qast.Drop_rule _ ->
    raise (Plan_error ("query form is not cacheable: " ^ Qast.to_string q))

(* --- the plan cache ------------------------------------------------ *)

(* LRU over parameterized skeletons: an intrusive doubly-linked list
   (same idiom as [Cal_cache]) with a hashtable from skeleton to node.
   Skeleton keys contain no [Value.t] after parameterization — only
   constructors, strings and ints — so polymorphic hashing and equality
   are safe. *)

type node = {
  nkey : Qast.query;
  nplan : plan;
  mutable prev : node option;
  mutable next : node option;
}

type cache = {
  tbl : (Qast.query, node) Hashtbl.t;
  capacity : int;
  lock : Mutex.t;
      (* one catalog's cache box is shared with its snapshots, so
         concurrent readers and the writer prepare against the same LRU *)
  mutable head : node option;  (* most recently used *)
  mutable tail : node option;
  mutable chits : int;
  mutable cmisses : int;
  mutable cevictions : int;
  mutable cinvalidations : int;
}

type Catalog.cache_box += Box of cache

let default_capacity = 256

(* Serializes first-use installation of a catalog's cache box (the box
   slot is shared by reference with every snapshot of that catalog). *)
let install_lock = Mutex.create ()

let cache_of catalog =
  match !((catalog : Catalog.t).Catalog.plan_cache) with
  | Some (Box c) -> c
  | _ ->
    Mutex.protect install_lock (fun () ->
        match !(catalog.Catalog.plan_cache) with
        | Some (Box c) -> c
        | _ ->
          let c =
            {
              tbl = Hashtbl.create 64;
              capacity = default_capacity;
              lock = Mutex.create ();
              head = None;
              tail = None;
              chits = 0;
              cmisses = 0;
              cevictions = 0;
              cinvalidations = 0;
            }
          in
          catalog.Catalog.plan_cache := Some (Box c);
          c)

let unlink c n =
  (match n.prev with Some p -> p.next <- n.next | None -> c.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> c.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front c n =
  n.next <- c.head;
  n.prev <- None;
  (match c.head with Some h -> h.prev <- Some n | None -> c.tail <- Some n);
  c.head <- Some n

let remove c n =
  unlink c n;
  Hashtbl.remove c.tbl n.nkey

let evict_tail c =
  match c.tail with
  | None -> ()
  | Some n ->
    remove c n;
    c.cevictions <- c.cevictions + 1

(** [prepare catalog q] parameterizes [q], then returns the cached plan
    for its skeleton (hit) or builds, caches and returns a fresh one
    (miss). The returned flag is [true] on a hit. Plans built under an
    older catalog version count as invalidations and rebuild.
    @raise Plan_error on non-cacheable query forms or plan-time
    validation failures (never cached). *)
let prepare catalog (q : Qast.query) : plan * Value.t array * bool =
  match parameterize_query q with
  | None -> raise (Plan_error ("query form is not cacheable: " ^ Qast.to_string q))
  | Some (key, params) ->
    let c = cache_of catalog in
    Mutex.protect c.lock (fun () ->
        match Hashtbl.find_opt c.tbl key with
        | Some n when n.nplan.pversion = (catalog : Catalog.t).Catalog.version ->
          c.chits <- c.chits + 1;
          unlink c n;
          push_front c n;
          (n.nplan, params, true)
        | stale ->
          (match stale with
          | Some n ->
            c.cinvalidations <- c.cinvalidations + 1;
            remove c n
          | None -> ());
          c.cmisses <- c.cmisses + 1;
          let plan = build catalog key in
          let n = { nkey = key; nplan = plan; prev = None; next = None } in
          Hashtbl.replace c.tbl key n;
          push_front c n;
          if Hashtbl.length c.tbl > c.capacity then evict_tail c;
          (plan, params, false))

type cache_stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  size : int;
}

let cache_stats catalog =
  let c = cache_of catalog in
  Mutex.protect c.lock (fun () ->
      {
        hits = c.chits;
        misses = c.cmisses;
        evictions = c.cevictions;
        invalidations = c.cinvalidations;
        size = Hashtbl.length c.tbl;
      })
