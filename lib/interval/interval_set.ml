(* Sorted-array-backed interval sets.

   [arr] is sorted by Interval.compare with no exact duplicates. [max_hi]
   is the prefix maximum of the members' high endpoints: because members
   may overlap (weeks straddling month boundaries), an early member with a
   large [hi] can cover a late chronon, so plain binary search on [lo] is
   not enough for containment — but the prefix maximum is monotone, which
   makes [contains_chronon], [restrict] and [clip] binary-searchable.

   The coalesced pointwise form (disjoint, non-adjacent segments stored
   flat, two words a range) is computed at most once per set and cached
   in a mutable field; the set itself is immutable. All set algebra is a
   single merge pass over the already-sorted inputs. *)

type t = {
  arr : Interval.t array;
  max_hi : Chronon.t array;  (* prefix maximum of hi *)
  mutable segs : int array option;  (* coalesced form, lazy *)
}

let empty = { arr = [||]; max_hi = [||]; segs = Some [||] }

(* [arr] must be sorted by Interval.compare with no duplicates. *)
let of_sorted_array_unsafe arr =
  let n = Array.length arr in
  if n = 0 then empty
  else begin
    let max_hi = Array.make n Chronon.minus_infinity in
    let running = ref Chronon.minus_infinity in
    for i = 0 to n - 1 do
      running := Chronon.max !running (Interval.hi arr.(i));
      max_hi.(i) <- !running
    done;
    { arr; max_hi; segs = None }
  end

let is_empty t = Array.length t.arr = 0

let of_list l =
  of_sorted_array_unsafe (Array.of_list (List.sort_uniq Interval.compare l))

let of_pairs l = of_list (List.map (fun (lo, hi) -> Interval.make lo hi) l)
let to_list t = Array.to_list t.arr
let to_array t = Array.copy t.arr
let to_seq t = Array.to_seq t.arr
let to_pairs t = List.map (fun i -> (Interval.lo i, Interval.hi i)) (to_list t)
let cardinal t = Array.length t.arr
let singleton i = of_sorted_array_unsafe [| i |]

(* --- binary searches ------------------------------------------------ *)

(* First index with lo >= v (cardinal when none). *)
let lower_bound_lo t v =
  let lo = ref 0 and hi = ref (Array.length t.arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Chronon.compare (Interval.lo t.arr.(mid)) v < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* First index with lo > v (cardinal when none). *)
let upper_bound_lo t v =
  let lo = ref 0 and hi = ref (Array.length t.arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Chronon.compare (Interval.lo t.arr.(mid)) v <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* First index whose prefix-max hi reaches v (cardinal when none). *)
let first_reaching t v =
  let lo = ref 0 and hi = ref (Array.length t.arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Chronon.compare t.max_hi.(mid) v < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let mem i t =
  let lo = ref 0 and hi = ref (Array.length t.arr) and found = ref false in
  while (not !found) && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let c = Interval.compare i t.arr.(mid) in
    if c = 0 then found := true else if c > 0 then lo := mid + 1 else hi := mid
  done;
  !found

let contains_chronon t c =
  (* Members with lo <= c are exactly the indices below [k]; one of them
     contains c iff the largest hi among them reaches c. *)
  let k = upper_bound_lo t c in
  k > 0 && Chronon.compare t.max_hi.(k - 1) c >= 0

let nth t i =
  if i < 1 || i > Array.length t.arr then raise Not_found else t.arr.(i - 1)

let nth_from_end t i =
  let n = Array.length t.arr in
  if i < 1 || i > n then raise Not_found else t.arr.(n - i)

let first t = if is_empty t then None else Some t.arr.(0)

let last t =
  let n = Array.length t.arr in
  if n = 0 then None else Some t.arr.(n - 1)

let span t =
  let n = Array.length t.arr in
  if n = 0 then None
  else Some (Interval.make (Interval.lo t.arr.(0)) t.max_hi.(n - 1))

let first_start_geq t c =
  let k = lower_bound_lo t c in
  if k >= Array.length t.arr then None else Some t.arr.(k)

let filter p t =
  (* A subsequence of a sorted unique array stays sorted and unique. *)
  let kept = Array.of_seq (Seq.filter p (Array.to_seq t.arr)) in
  if Array.length kept = Array.length t.arr then t else of_sorted_array_unsafe kept

let map f t = of_list (List.map f (to_list t))
let iter f t = Array.iter f t.arr
let fold f init t = Array.fold_left f init t.arr

let add i t =
  if mem i t then t
  else begin
    let n = Array.length t.arr in
    (* Insertion point: first index whose member sorts after [i]. *)
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Interval.compare t.arr.(mid) i < 0 then lo := mid + 1 else hi := mid
    done;
    let k = !lo in
    let arr = Array.make (n + 1) i in
    Array.blit t.arr 0 arr 0 k;
    Array.blit t.arr k arr (k + 1) (n - k);
    of_sorted_array_unsafe arr
  end

(* --- element-wise algebra: single-pass merges ----------------------- *)

let union a b =
  if is_empty a then b
  else if is_empty b then a
  else begin
    let na = Array.length a.arr and nb = Array.length b.arr in
    let out = Array.make (na + nb) a.arr.(0) in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    let put x =
      out.(!k) <- x;
      incr k
    in
    while !i < na && !j < nb do
      let c = Interval.compare a.arr.(!i) b.arr.(!j) in
      if c < 0 then (put a.arr.(!i); incr i)
      else if c > 0 then (put b.arr.(!j); incr j)
      else (put a.arr.(!i); incr i; incr j)
    done;
    while !i < na do put a.arr.(!i); incr i done;
    while !j < nb do put b.arr.(!j); incr j done;
    if !k = na + nb then of_sorted_array_unsafe out
    else of_sorted_array_unsafe (Array.sub out 0 !k)
  end

(* Merge walk keeping members of [a] according to whether they also occur
   in [b] ([keep_found] selects inter vs diff). *)
let merge_select keep_found a b =
  if is_empty a then a
  else if is_empty b then (if keep_found then empty else a)
  else begin
    let na = Array.length a.arr and nb = Array.length b.arr in
    let out = Array.make na a.arr.(0) in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < na do
      let x = a.arr.(!i) in
      while !j < nb && Interval.compare b.arr.(!j) x < 0 do incr j done;
      let found = !j < nb && Interval.compare b.arr.(!j) x = 0 in
      if found = keep_found then begin
        out.(!k) <- x;
        incr k
      end;
      incr i
    done;
    if !k = na then a else of_sorted_array_unsafe (Array.sub out 0 !k)
  end

let diff a b = merge_select false a b
let inter a b = merge_select true a b

let equal a b =
  let n = Array.length a.arr in
  n = Array.length b.arr
  &&
  let rec go i = i >= n || (Interval.equal a.arr.(i) b.arr.(i) && go (i + 1)) in
  go 0

(* --- pointwise (chronon-set) algebra -------------------------------- *)

(* Segment buffers hold disjoint, sorted, non-adjacent chronon ranges
   flat, [lo0; hi0; lo1; hi1; ...]: two words a range. [push_seg buf k
   lo hi] appends [(lo, hi)] to a buffer holding [k] segments, merging it
   into the last one when they overlap or touch, and returns the new
   count. Segments must arrive sorted by [lo]. Adjacency is tested in
   offset space, which has no hole (chronon 0 does not exist). *)
let push_seg buf k lo hi =
  if k > 0 && Chronon.to_offset lo <= Chronon.to_offset buf.((2 * k) - 1) + 1 then begin
    if Chronon.compare hi buf.((2 * k) - 1) > 0 then buf.((2 * k) - 1) <- hi;
    k
  end
  else begin
    buf.(2 * k) <- lo;
    buf.((2 * k) + 1) <- hi;
    k + 1
  end

let trim buf k = if 2 * k = Array.length buf then buf else Array.sub buf 0 (2 * k)

(* The coalesced form: members are already sorted by (lo, hi), so merging
   overlapping or adjacent members is one forward pass. *)
let segments t =
  match t.segs with
  | Some s -> s
  | None ->
    let buf = Array.make (2 * Array.length t.arr) 0 in
    let k = ref 0 in
    Array.iter (fun iv -> k := push_seg buf !k (Interval.lo iv) (Interval.hi iv)) t.arr;
    let s = trim buf !k in
    t.segs <- Some s;
    s

(* Disjoint sorted non-adjacent segments are sorted and unique as
   intervals, and are their own coalesced form; the array is shared. *)
let of_segments s =
  if Array.length s = 0 then empty
  else begin
    let t =
      of_sorted_array_unsafe
        (Array.init (Array.length s / 2) (fun i -> Interval.make s.(2 * i) s.((2 * i) + 1)))
    in
    t.segs <- Some s;
    t
  end

let segments_contain s c =
  (* Last segment starting at or before [c], then one comparison. *)
  let lo = ref 0 and hi = ref (Array.length s / 2) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Chronon.compare s.(2 * mid) c <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo > 0 && Chronon.compare c s.((2 * !lo) - 1) <= 0

(* A set whose coalesced form has as many segments as it has members
   merged nothing, so it already is that form. *)
let coalesce t =
  let s = segments t in
  if Array.length s = 2 * Array.length t.arr then t else of_segments s

let pointwise_union a b =
  let ca = segments a and cb = segments b in
  let na = Array.length ca / 2 and nb = Array.length cb / 2 in
  if na = 0 then coalesce b
  else if nb = 0 then coalesce a
  else begin
    let out = Array.make (2 * (na + nb)) 0 in
    let k = ref 0 and i = ref 0 and j = ref 0 in
    while !i < na || !j < nb do
      if !j >= nb || (!i < na && Chronon.compare ca.(2 * !i) cb.(2 * !j) <= 0) then begin
        k := push_seg out !k ca.(2 * !i) ca.((2 * !i) + 1);
        incr i
      end
      else begin
        k := push_seg out !k cb.(2 * !j) cb.((2 * !j) + 1);
        incr j
      end
    done;
    of_segments (trim out !k)
  end

let pointwise_inter a b =
  let ca = segments a and cb = segments b in
  let na = Array.length ca / 2 and nb = Array.length cb / 2 in
  let out = Array.make (2 * (na + nb)) 0 in
  let k = ref 0 and i = ref 0 and j = ref 0 in
  while !i < na && !j < nb do
    let ahi = ca.((2 * !i) + 1) and bhi = cb.((2 * !j) + 1) in
    let lo = Chronon.max ca.(2 * !i) cb.(2 * !j) and hi = Chronon.min ahi bhi in
    if Chronon.compare lo hi <= 0 then k := push_seg out !k lo hi;
    if Chronon.compare ahi bhi <= 0 then incr i else incr j
  done;
  of_segments (trim out !k)

let pointwise_diff a b =
  let ca = segments a and cb = segments b in
  let na = Array.length ca / 2 and nb = Array.length cb / 2 in
  let out = Array.make (2 * (na + nb)) 0 in
  let k = ref 0 and j = ref 0 in
  let emit lo hi = k := push_seg out !k lo hi in
  for i = 0 to na - 1 do
    let alo = ca.(2 * i) and ahi = ca.((2 * i) + 1) in
    let cur = ref alo in
    let continue = ref true in
    while !continue do
      (* b-segments ending before [cur] cannot affect this or any later
         a-segment ([cur] only grows, a-segments are sorted). *)
      while !j < nb && Chronon.compare cb.((2 * !j) + 1) !cur < 0 do incr j done;
      if !j >= nb || Chronon.compare cb.(2 * !j) ahi > 0 then begin
        if Chronon.compare !cur ahi <= 0 then emit !cur ahi;
        continue := false
      end
      else begin
        let blo = cb.(2 * !j) and bhi = cb.((2 * !j) + 1) in
        if Chronon.compare blo !cur > 0 then emit !cur (Chronon.pred blo);
        if Chronon.compare bhi ahi >= 0 then continue := false else cur := Chronon.succ bhi
      end
    done
  done;
  of_segments (trim out !k)

(* --- windowing ------------------------------------------------------ *)

(* The only members that can overlap [w] lie in the index range
   [first_reaching w.lo, upper_bound_lo w.hi); both edges are binary
   searches, the slice is then tested exactly. *)
let overlap_slice t w = (first_reaching t (Interval.lo w), upper_bound_lo t (Interval.hi w) - 1)

let restrict t w =
  let start, stop = overlap_slice t w in
  if start > stop then empty
  else begin
    let buf = ref [] in
    for i = stop downto start do
      if Interval.overlaps t.arr.(i) w then buf := t.arr.(i) :: !buf
    done;
    of_sorted_array_unsafe (Array.of_list !buf)
  end

let clip t w =
  let start, stop = overlap_slice t w in
  if start > stop then empty
  else begin
    (* Clipping can merge distinct members into duplicates and, when a
       long member is cut, reorder ties — re-sort the (small) slice. *)
    let buf = ref [] in
    for i = stop downto start do
      match Interval.intersect t.arr.(i) w with
      | Some iv -> buf := iv :: !buf
      | None -> ()
    done;
    of_list !buf
  end

let pp ppf t =
  Format.fprintf ppf "{@[%a@]}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") Interval.pp)
    (to_list t)

let to_string t = Format.asprintf "%a" pp t
