(** In-memory B-tree multimap from {!Value.t} keys to row ids.

    Classic CLRS structure with minimum degree [t = 16]: every node holds
    between [t-1] and [2t-1] keys (root exempt), splits happen on the way
    down during insertion, and deletion rebalances by borrowing from or
    merging with siblings. Each key carries the list of row ids indexed
    under it (a secondary index is a multimap).

    Every node carries an ownership stamp and every handle a current
    stamp; {!freeze} is O(1) — it hands out a second handle onto the same
    root and moves both handles to fresh stamps, so subsequent mutations
    copy each node once per epoch on the way down (path copying). Reads
    on either handle never see the other's writes. *)

let min_degree = 16

type node = {
  mutable nkeys : int;
  mutable keys : Value.t array;  (* length 2t-1; first nkeys are meaningful *)
  mutable vals : int list array;  (* rowids per key *)
  mutable children : node array;  (* length 2t when internal; [||] when leaf *)
  stamp : int;  (* owning handle's stamp at creation/copy time *)
}

type t = {
  mutable root : node;
  mutable cardinal : int; (* distinct keys *)
  stamp_src : int ref;  (* shared stamp counter for the whole family *)
  mutable stamp : int;  (* this handle's current stamp *)
}

let max_keys = (2 * min_degree) - 1

let new_node ~leaf ~stamp =
  {
    nkeys = 0;
    keys = Array.make max_keys Value.Null;
    vals = Array.make max_keys [];
    children = (if leaf then [||] else Array.make (2 * min_degree) (Obj.magic 0));
    stamp;
  }

(* Fresh nodes for children arrays need a placeholder; never expose it. *)
let dummy = new_node ~leaf:true ~stamp:min_int

let new_internal ~stamp () =
  let n = new_node ~leaf:false ~stamp in
  Array.fill n.children 0 (Array.length n.children) dummy;
  n

let new_leaf ~stamp () = new_node ~leaf:true ~stamp

let is_leaf n = Array.length n.children = 0

let create () = { root = new_leaf ~stamp:0 (); cardinal = 0; stamp_src = ref 0; stamp = 0 }

let freeze t =
  incr t.stamp_src;
  let snap =
    { root = t.root; cardinal = t.cardinal; stamp_src = t.stamp_src; stamp = !(t.stamp_src) }
  in
  incr t.stamp_src;
  t.stamp <- !(t.stamp_src);
  snap

(* A node is mutable through [t] only when its stamp matches; otherwise
   some snapshot may still reach it, so copy first. *)
let own t (node : node) : node =
  if node.stamp = t.stamp then node
  else
    {
      nkeys = node.nkeys;
      keys = Array.copy node.keys;
      vals = Array.copy node.vals;
      children = (if is_leaf node then [||] else Array.copy node.children);
      stamp = t.stamp;
    }

(* Own child [i] of the (already owned) [parent], writing the copy back. *)
let own_child t parent i =
  let c = own t parent.children.(i) in
  parent.children.(i) <- c;
  c

(* Position of the first key >= k, in [0, nkeys]. *)
let lower_bound node k =
  let lo = ref 0 and hi = ref node.nkeys in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Value.compare node.keys.(mid) k < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let rec find_node node k =
  let i = lower_bound node k in
  if i < node.nkeys && Value.compare node.keys.(i) k = 0 then Some (node, i)
  else if is_leaf node then None
  else find_node node.children.(i) k

let find t k =
  match find_node t.root k with Some (n, i) -> n.vals.(i) | None -> []

let mem t k = find_node t.root k <> None

(* --- insertion ----------------------------------------------------- *)

(* [parent] must already be owned by [t]. *)
let split_child t parent i =
  let full = own_child t parent i in
  let right = if is_leaf full then new_leaf ~stamp:t.stamp () else new_internal ~stamp:t.stamp () in
  let tdeg = min_degree in
  right.nkeys <- tdeg - 1;
  Array.blit full.keys tdeg right.keys 0 (tdeg - 1);
  Array.blit full.vals tdeg right.vals 0 (tdeg - 1);
  if not (is_leaf full) then Array.blit full.children tdeg right.children 0 tdeg;
  (* shift parent entries right to make room *)
  for j = parent.nkeys downto i + 1 do
    parent.keys.(j) <- parent.keys.(j - 1);
    parent.vals.(j) <- parent.vals.(j - 1)
  done;
  for j = parent.nkeys + 1 downto i + 2 do
    parent.children.(j) <- parent.children.(j - 1)
  done;
  parent.keys.(i) <- full.keys.(tdeg - 1);
  parent.vals.(i) <- full.vals.(tdeg - 1);
  parent.children.(i + 1) <- right;
  parent.nkeys <- parent.nkeys + 1;
  full.nkeys <- tdeg - 1

(* [node] must already be owned by [t]. *)
let rec insert_nonfull t node k rowid =
  let i = lower_bound node k in
  if i < node.nkeys && Value.compare node.keys.(i) k = 0 then
    node.vals.(i) <- rowid :: node.vals.(i)
  else if is_leaf node then begin
    for j = node.nkeys downto i + 1 do
      node.keys.(j) <- node.keys.(j - 1);
      node.vals.(j) <- node.vals.(j - 1)
    done;
    node.keys.(i) <- k;
    node.vals.(i) <- [ rowid ];
    node.nkeys <- node.nkeys + 1;
    t.cardinal <- t.cardinal + 1
  end
  else begin
    let i =
      if node.children.(i).nkeys = max_keys then begin
        split_child t node i;
        let c = Value.compare node.keys.(i) k in
        if c = 0 then begin
          node.vals.(i) <- rowid :: node.vals.(i);
          -1 (* handled at this level *)
        end
        else if c < 0 then i + 1
        else i
      end
      else i
    in
    if i >= 0 then insert_nonfull t (own_child t node i) k rowid
  end

let insert t k rowid =
  t.root <- own t t.root;
  if t.root.nkeys = max_keys then begin
    let new_root = new_internal ~stamp:t.stamp () in
    new_root.children.(0) <- t.root;
    t.root <- new_root;
    split_child t new_root 0
  end;
  insert_nonfull t t.root k rowid

(* --- deletion ------------------------------------------------------ *)

let rec max_entry node =
  if is_leaf node then (node.keys.(node.nkeys - 1), node.vals.(node.nkeys - 1))
  else max_entry node.children.(node.nkeys)

let rec min_entry node =
  if is_leaf node then (node.keys.(0), node.vals.(0))
  else min_entry node.children.(0)

(* Merge child i, parent key i and child i+1 into child i.
   [node] must already be owned by [t]. *)
let merge_children t node i =
  let left = own_child t node i in
  let right = node.children.(i + 1) in
  left.keys.(left.nkeys) <- node.keys.(i);
  left.vals.(left.nkeys) <- node.vals.(i);
  Array.blit right.keys 0 left.keys (left.nkeys + 1) right.nkeys;
  Array.blit right.vals 0 left.vals (left.nkeys + 1) right.nkeys;
  if not (is_leaf left) then
    Array.blit right.children 0 left.children (left.nkeys + 1) (right.nkeys + 1);
  left.nkeys <- left.nkeys + 1 + right.nkeys;
  for j = i to node.nkeys - 2 do
    node.keys.(j) <- node.keys.(j + 1);
    node.vals.(j) <- node.vals.(j + 1)
  done;
  for j = i + 1 to node.nkeys - 1 do
    node.children.(j) <- node.children.(j + 1)
  done;
  node.nkeys <- node.nkeys - 1

(* Ensure child i of node has at least t keys before descending.
   [node] must already be owned by [t]. *)
let fill t node i =
  let tdeg = min_degree in
  if i > 0 && node.children.(i - 1).nkeys >= tdeg then begin
    (* borrow from left sibling *)
    let child = own_child t node i and left = own_child t node (i - 1) in
    for j = child.nkeys downto 1 do
      child.keys.(j) <- child.keys.(j - 1);
      child.vals.(j) <- child.vals.(j - 1)
    done;
    if not (is_leaf child) then
      for j = child.nkeys + 1 downto 1 do
        child.children.(j) <- child.children.(j - 1)
      done;
    child.keys.(0) <- node.keys.(i - 1);
    child.vals.(0) <- node.vals.(i - 1);
    if not (is_leaf child) then child.children.(0) <- left.children.(left.nkeys);
    node.keys.(i - 1) <- left.keys.(left.nkeys - 1);
    node.vals.(i - 1) <- left.vals.(left.nkeys - 1);
    left.nkeys <- left.nkeys - 1;
    child.nkeys <- child.nkeys + 1
  end
  else if i < node.nkeys && node.children.(i + 1).nkeys >= tdeg then begin
    (* borrow from right sibling *)
    let child = own_child t node i and right = own_child t node (i + 1) in
    child.keys.(child.nkeys) <- node.keys.(i);
    child.vals.(child.nkeys) <- node.vals.(i);
    if not (is_leaf child) then child.children.(child.nkeys + 1) <- right.children.(0);
    node.keys.(i) <- right.keys.(0);
    node.vals.(i) <- right.vals.(0);
    for j = 0 to right.nkeys - 2 do
      right.keys.(j) <- right.keys.(j + 1);
      right.vals.(j) <- right.vals.(j + 1)
    done;
    if not (is_leaf right) then
      for j = 0 to right.nkeys - 1 do
        right.children.(j) <- right.children.(j + 1)
      done;
    right.nkeys <- right.nkeys - 1;
    child.nkeys <- child.nkeys + 1
  end
  else if i < node.nkeys then merge_children t node i
  else merge_children t node (i - 1)

(* [node] must already be owned by [t]. *)
let rec delete_key t node k =
  let i = lower_bound node k in
  if i < node.nkeys && Value.compare node.keys.(i) k = 0 then begin
    if is_leaf node then begin
      for j = i to node.nkeys - 2 do
        node.keys.(j) <- node.keys.(j + 1);
        node.vals.(j) <- node.vals.(j + 1)
      done;
      node.nkeys <- node.nkeys - 1
    end
    else if node.children.(i).nkeys >= min_degree then begin
      let pk, pv = max_entry node.children.(i) in
      node.keys.(i) <- pk;
      node.vals.(i) <- pv;
      delete_key t (own_child t node i) pk
    end
    else if node.children.(i + 1).nkeys >= min_degree then begin
      let sk, sv = min_entry node.children.(i + 1) in
      node.keys.(i) <- sk;
      node.vals.(i) <- sv;
      delete_key t (own_child t node (i + 1)) sk
    end
    else begin
      merge_children t node i;
      delete_key t (own_child t node i) k
    end
  end
  else if not (is_leaf node) then begin
    let last = i = node.nkeys in
    if node.children.(i).nkeys < min_degree then fill t node i;
    (* After a merge at the end, descend into the previous child. *)
    if last && i > node.nkeys then delete_key t (own_child t node (i - 1)) k
    else
      (* fill may have shifted keys; recompute the descent position *)
      let i = lower_bound node k in
      if i < node.nkeys && Value.compare node.keys.(i) k = 0 then delete_key t node k
      else delete_key t (own_child t node i) k
  end

(* Replace key [k]'s rowid list along an owned descent. [node] must
   already be owned by [t]; the key is known to be present. *)
let rec set_vals t node k vals =
  let i = lower_bound node k in
  if i < node.nkeys && Value.compare node.keys.(i) k = 0 then node.vals.(i) <- vals
  else set_vals t (own_child t node i) k vals

(** [remove t k rowid] removes one indexed row id from key [k]; the key
    disappears once its last row id is gone. Returns [false] when the
    (key, rowid) pair was not present. *)
let remove t k rowid =
  match find_node t.root k with
  | None -> false
  | Some (node, i) ->
    if not (List.mem rowid node.vals.(i)) then false
    else begin
      let remaining = List.filter (fun r -> r <> rowid) node.vals.(i) in
      t.root <- own t t.root;
      if remaining <> [] then begin
        set_vals t t.root k remaining;
        true
      end
      else begin
        delete_key t t.root k;
        if t.root.nkeys = 0 && not (is_leaf t.root) then t.root <- t.root.children.(0);
        t.cardinal <- t.cardinal - 1;
        true
      end
    end

(* --- traversal ----------------------------------------------------- *)

let rec iter_node node f =
  if is_leaf node then
    for i = 0 to node.nkeys - 1 do
      f node.keys.(i) node.vals.(i)
    done
  else begin
    for i = 0 to node.nkeys - 1 do
      iter_node node.children.(i) f;
      f node.keys.(i) node.vals.(i)
    done;
    iter_node node.children.(node.nkeys) f
  end

let iter t f = iter_node t.root f

(** [range t ?lo ?hi f] visits keys in [lo, hi] (inclusive, either side
    optional) in ascending order, in O(log n + k) for [k] keys visited:
    a binary search descends to [lo], and the in-order walk stops at the
    first key above [hi] (so no child to its right is entered). *)
let range t ?lo ?hi f =
  let below k = match hi with None -> true | Some h -> Value.compare k h <= 0 in
  (* Walks [node] from its first key >= [lo] when [seek] (keys of later
     subtrees already are); [false] once a key above [hi] ended the walk. *)
  let rec go ~seek node =
    let leaf = is_leaf node in
    let rec from i ~seek =
      if (not leaf) && not (go ~seek node.children.(i)) then false
      else if i = node.nkeys then true
      else if below node.keys.(i) then begin
        f node.keys.(i) node.vals.(i);
        from (i + 1) ~seek:false
      end
      else false
    in
    match lo with
    | Some l when seek -> from (lower_bound node l) ~seek:true
    | _ -> from 0 ~seek:false
  in
  ignore (go ~seek:true t.root)

(* [range_merge t segs f] sweeps several inclusive chronon ranges in one
   in-order traversal. [segs] is a flat [lo0; hi0; lo1; hi1; ...] array
   sorted by lower bound and pairwise disjoint (a calendar's coalesced
   {!Interval_set.segments}). A cursor over the ranges advances
   monotonically as keys stream past; whenever a key falls short of the
   current range, a binary search jumps to the first key of the node at
   or after the range's start, skipping the keys and subtrees in between
   — a single sweep replaces one [range] probe per range, and touches
   only the keys it reports plus O(log) per range and node. Keys compare
   against the bounds unboxed; keys that are not chronons fall outside
   every range. *)
let range_merge t (segs : int array) f =
  let n = Array.length segs / 2 in
  let idx = ref 0 in
  (* [Value.compare k (Chronon c)], without boxing [c] for the chronon
     keys that make up the sweep's inner loop. *)
  let cmp k c =
    match k with Value.Chronon x -> compare (x : int) c | k -> Value.compare k (Value.Chronon c)
  in
  (* First slot of [node] at or after [from] whose key is >= chronon [c]. *)
  let seek node from c =
    let lo = ref from and hi = ref node.nkeys in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cmp node.keys.(mid) c < 0 then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let rec go node =
    if !idx < n then begin
      let leaf = is_leaf node in
      let i = ref (seek node 0 segs.(2 * !idx)) in
      (* Slot [i] stands for child [i] (keys between keys.(i-1) and
         keys.(i)), then key [i]. *)
      while !idx < n && !i <= node.nkeys do
        if not leaf then go node.children.(!i);
        if !i = node.nkeys || !idx >= n then incr i
        else begin
          let k = node.keys.(!i) in
          (* Drop ranges ending before [k]; in-order traversal guarantees
             they can never contain a later key. *)
          while !idx < n && cmp k segs.((2 * !idx) + 1) > 0 do
            incr idx
          done;
          if !idx < n then
            if cmp k segs.(2 * !idx) >= 0 then begin
              f k node.vals.(!i);
              incr i
            end
            else i := seek node (!i + 1) segs.(2 * !idx)
        end
      done
    end
  in
  go t.root

let cardinal t = t.cardinal

let min_key t = if t.cardinal = 0 then None else Some (fst (min_entry t.root))
let max_key t = if t.cardinal = 0 then None else Some (fst (max_entry t.root))

let keys t =
  let acc = ref [] in
  iter t (fun k _ -> acc := k :: !acc);
  List.rev !acc

(* Structural invariant checks for tests. *)
let rec check_node node ~is_root ~depth =
  if not is_root && node.nkeys < min_degree - 1 then failwith "underfull node";
  if node.nkeys > max_keys then failwith "overfull node";
  for i = 1 to node.nkeys - 1 do
    if Value.compare node.keys.(i - 1) node.keys.(i) >= 0 then failwith "unsorted keys"
  done;
  if is_leaf node then depth
  else begin
    let d = ref (-1) in
    for i = 0 to node.nkeys do
      let di = check_node node.children.(i) ~is_root:false ~depth:(depth + 1) in
      if !d = -1 then d := di else if di <> !d then failwith "uneven leaf depth"
    done;
    !d
  end

let check_invariants t = ignore (check_node t.root ~is_root:true ~depth:0)
