(** Query plans and the catalog-resident plan cache.

    Queries are canonicalized by hoisting literal constants into a
    parameter vector; the constant-free skeleton keys an LRU of compiled
    plans stamped with {!Catalog.version}. Any DDL bumps the version, so
    stale plans die on their next lookup (the DDL → plan-cache
    invalidation rule). Probe ranking and execution live in {!Exec}. *)

exception Plan_error of string

(** [parameterize_query q] hoists every [Const] into a parameter vector,
    returning the skeleton and the constants in slot order; [None] for
    DDL / rule definitions (not cached). *)
val parameterize_query : Qast.query -> (Qast.query * Value.t array) option

(** Resolve a [Const]-or-[Param] plan operand. @raise Plan_error *)
val probe_value : Value.t array -> Qexpr.t -> Value.t

(** Operands are [Const _] or [Param _]. *)
type probe_op =
  | Peq of Qexpr.t
  | Prange of { lo : Qexpr.t list; hi : Qexpr.t list }
      (** every lower / upper bound of the column's [<], [<=], [>], [>=]
          conjuncts, each side possibly empty (unbounded); strict bounds
          widen to the inclusive form and the residual where re-applies
          them *)

type probe = {
  pcol : string;  (** unqualified column name, indexed at plan time *)
  pop : probe_op;
}

type scan = {
  stable : Table.t;
  swhere : Qcompile.code option;  (** full residual predicate *)
  sprobes : probe list;
      (** one [Peq] per equality conjunct, one [Prange] per column with
          range conjuncts *)
  scal : string option;  (** [on <calendar>] source text *)
  svalid_ix : int option;  (** tuple offset of the valid-time column *)
  svalid_col : string option;
  spure : bool;
      (** no operator calls in the where clause — the predicate is safe
          to evaluate concurrently, so the sequential scan may be
          partitioned across domains *)
}

type assign = {
  acol : string;
  aix : int option;  (** [None] defers the unknown-column error to
                         execution, matching interpreter timing *)
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
      raw_targets : (string * Qexpr.t) list;
      aggregate : bool;
      group_by : string list;
      group_codes : Qcompile.code list;
    }
  | P_delete of { scan : scan }
  | P_replace of { scan : scan; rassigns : assign list }
  | P_append of { atable : Table.t; aassigns : assign list }

type plan = {
  pversion : int;
  outer : string array;  (** interned free columns, in slot order *)
  action : action;
}

val aggregates : string list
val is_aggregate_call : Qexpr.t -> bool

(** Strip an optional "table." qualifier naming this table. *)
val own_column : Table.t -> string -> string option

(** Get-or-build the plan for [q]; the flag is [true] on a cache hit.
    @raise Plan_error on non-cacheable forms or plan-time validation
    failures (and the catalog/schema exceptions). *)
val prepare : Catalog.t -> Qast.query -> plan * Value.t array * bool

type cache_stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  size : int;
}

(** Cumulative counters of the catalog's plan cache. *)
val cache_stats : Catalog.t -> cache_stats
