(** A table: schema + heap + secondary B-tree indexes, kept consistent on
    every mutation. *)

type t = {
  schema : Schema.t;
  heap : Heap.t;
  mutable indexes : (string * Btree.t) list;  (** column name -> index *)
  mutable snap : t option;  (** cached {!freeze} result, dropped on mutation *)
  mutable on_mutate : unit -> unit;  (** catalog-installed invalidation hook *)
}

exception No_such_column of string

let create schema =
  { schema; heap = Heap.create (); indexes = []; snap = None; on_mutate = ignore }

let name t = t.schema.Schema.table

(* Every write funnels through here: the cached snapshot (if any) no
   longer reflects this table, and the owning catalog must re-freeze. *)
let mutated t =
  if t.snap != None then t.snap <- None;
  t.on_mutate ()

let freeze t =
  match t.snap with
  | Some s -> s
  | None ->
    let s =
      {
        schema = t.schema;
        heap = Heap.freeze t.heap;
        indexes = List.map (fun (col, idx) -> (col, Btree.freeze idx)) t.indexes;
        snap = None;
        on_mutate = ignore;
      }
    in
    (* A snapshot is its own snapshot: freezing it again is the identity. *)
    s.snap <- Some s;
    t.snap <- Some s;
    s

let key_of t col tuple = tuple.(Schema.column_index_exn t.schema col)

let index_insert t rowid tuple =
  List.iter (fun (col, idx) -> Btree.insert idx (key_of t col tuple) rowid) t.indexes

let index_remove t rowid tuple =
  List.iter
    (fun (col, idx) -> ignore (Btree.remove idx (key_of t col tuple) rowid))
    t.indexes

let insert t tuple =
  Schema.check_tuple t.schema tuple;
  mutated t;
  let rowid = Heap.insert t.heap tuple in
  index_insert t rowid tuple;
  rowid

let delete t rowid =
  match Heap.get t.heap rowid with
  | None -> false
  | Some tuple ->
    mutated t;
    index_remove t rowid tuple;
    ignore (Heap.delete t.heap rowid);
    true

let update t rowid tuple =
  Schema.check_tuple t.schema tuple;
  match Heap.get t.heap rowid with
  | None -> false
  | Some old ->
    mutated t;
    index_remove t rowid old;
    ignore (Heap.update t.heap rowid tuple);
    index_insert t rowid tuple;
    true

let get t rowid = Heap.get t.heap rowid
let count t = Heap.count t.heap
let high_water t = Heap.high_water t.heap
let iter t f = Heap.iter t.heap f
let iter_range t ~lo ~hi f = Heap.iter_range t.heap ~lo ~hi f
let fold t f init = Heap.fold t.heap f init

let has_index t col = List.mem_assoc col t.indexes

let create_index t col =
  if Schema.column_index t.schema col = None then raise (No_such_column col);
  if not (has_index t col) then begin
    mutated t;
    let idx = Btree.create () in
    Heap.iter t.heap (fun rowid tuple -> Btree.insert idx (key_of t col tuple) rowid);
    t.indexes <- (col, idx) :: t.indexes
  end

let index t col = List.assoc_opt col t.indexes

(** Row ids with [col = key], via the index. *)
let index_lookup t col key =
  match index t col with
  | None -> None
  | Some idx -> Some (Btree.find idx key)

(* Row ids under every key a [sweep] visits, unordered. *)
let collect sweep =
  let groups = ref [] and n = ref 0 in
  sweep (fun _ rowids ->
      groups := rowids :: !groups;
      n := !n + List.length rowids);
  let out = Array.make !n 0 and i = ref 0 in
  List.iter (List.iter (fun r -> out.(!i) <- r; incr i)) !groups;
  out

(** Row ids with [lo <= col <= hi], via one bounded index walk,
    unordered. *)
let index_range t col ?lo ?hi () =
  Option.map (fun idx -> collect (Btree.range idx ?lo ?hi)) (index t col)

(** Row ids with [col] in any of the sorted disjoint inclusive ranges,
    via one merged index sweep, unordered. *)
let index_merge t col segs =
  Option.map (fun idx -> collect (Btree.range_merge idx segs)) (index t col)
