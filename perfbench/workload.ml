(* The three seeded workloads: the request lines a client sends, and
   nothing else. Every line is a plain protocol request, so the served
   run and the in-process replays consume exactly the same text.

   A workload is a set-up script (schema, seed rows, rules), a warm-up
   list sent before timing, and the measured stream of one round. Every
   round replays the same stream against a fresh server, so a round's
   work is fixed and its replies can be checked against one oracle
   replay. *)

type t = {
  name : string;
  setup : string list;  (** schema, seed load, rule install *)
  warmup : string list;  (** sent after set-up, before timing *)
  stream : string array;  (** the measured requests of one round *)
  final_checks : string list;  (** unmeasured reads after each round *)
}

(* The served session's lifespan (see [Serve]): 1987-01-01 .. 2026-12-31,
   day chronons 1 .. 14610. *)
let lifespan_days = 14610

let rng seed salt = Random.State.make [| seed; salt; 0x5eed |]

(* Fisher-Yates, so block composition is fixed and only order is drawn. *)
let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let sym i = Printf.sprintf "S%02d" i

(* --- the trades table shared by cal_read and ingest ------------------ *)

let n_syms = 32
let seed_rows = 20_000
let load_batch = 250

let trades_schema =
  [
    "create table trades (day chronon valid, sym text, qty int, price float)";
    "create index on trades (day)";
  ]

let random_row st =
  let day = 1 + Random.State.int st lifespan_days in
  let s = Random.State.int st n_syms in
  let qty = 1 + Random.State.int st 1000 in
  let price = Printf.sprintf "%d.%02d" (10 + Random.State.int st 490) (Random.State.int st 100) in
  (day, s, qty, price)

let append_row (day, s, qty, price) =
  Printf.sprintf "append trades (day = @%d, sym = '%s', qty = %d, price = %s)" day (sym s) qty
    price

(* 20k rows spread over the lifespan, sent as write batches of 250. *)
let seed_load st =
  let rows = Array.init seed_rows (fun _ -> random_row st) in
  let batches =
    List.init (seed_rows / load_batch) (fun b ->
        String.concat "; "
          (List.init load_batch (fun i -> append_row rows.((b * load_batch) + i))))
  in
  (rows, batches)

(* --- cal_read -------------------------------------------------------- *)

(* Paper-shaped calendars: expiration Fridays, month ends, Third_Weeks,
   business days net of a holiday literal, quarter ends. *)
let hot_exprs =
  [|
    "[3]/([5]/DAYS:during:WEEKS):overlaps:MONTHS";
    "[n]/DAYS:during:MONTHS";
    "[3]/WEEKS:overlaps:MONTHS";
    "[1..5]/DAYS:during:WEEKS - {(100,100),(359,359),(465,465),(724,724),(830,830),(1089,1089)}";
    "[1]/DAYS:during:MONTHS";
    "[1]/([1]/DAYS:during:WEEKS):overlaps:MONTHS";
    "[n]/([5]/DAYS:during:WEEKS):overlaps:MONTHS";
    "[2]/DAYS:during:WEEKS";
    "DAYS:during:[1]/MONTHS:during:YEARS";
    "[15]/DAYS:during:MONTHS";
    "[n]/DAYS:during:[3,6,9,12]/MONTHS:during:YEARS";
    "[1]/([1..5]/DAYS:during:WEEKS):during:MONTHS";
    "[n]/([1..5]/DAYS:during:WEEKS):during:MONTHS";
    "[6,7]/DAYS:during:WEEKS";
    "[1]/DAYS:during:[1,4,7,10]/MONTHS:during:YEARS";
    "[4]/([4]/DAYS:during:WEEKS):overlaps:MONTHS";
  |]

(* A holiday literal of [k] single days drawn from a fixed stream keyed
   by [i], so tail expression [i] is the same text in every run. *)
let holiday_literal i k =
  let st = Random.State.make [| 0x401; i |] in
  let days =
    List.sort_uniq compare (List.init k (fun _ -> 1 + Random.State.int st lifespan_days))
  in
  "{" ^ String.concat "," (List.map (fun d -> Printf.sprintf "(%d,%d)" d d) days) ^ "}"

(* The tail: 1152 distinct parameterized expressions, more than the
   calendar cache's default capacity (512), in the same shapes as the
   hot set. The list is fixed; the seed only picks from it. Each round
   starts a fresh server and draws 64 of them, so tail requests are cold
   misses: the cache never fills to its capacity and evicts nothing. *)
let tail_exprs =
  let l = ref [] in
  let add e = l := e :: !l in
  for k = 1 to 4 do
    for d = 1 to 7 do
      add (Printf.sprintf "[%d]/([%d]/DAYS:during:WEEKS):overlaps:MONTHS" k d)
    done
  done;
  for k = 1 to 28 do
    add (Printf.sprintf "[%d]/DAYS:during:MONTHS" k)
  done;
  for k = 1 to 28 do
    for m = 1 to 12 do
      add (Printf.sprintf "[%d]/DAYS:during:[%d]/MONTHS:during:YEARS" k m)
    done
  done;
  for k = 1 to 4 do
    for d = 1 to 5 do
      for m = 1 to 12 do
        add (Printf.sprintf "[%d]/([%d]/DAYS:during:WEEKS):overlaps:[%d]/MONTHS:during:YEARS" k d m)
      done
    done
  done;
  for a = 1 to 7 do
    for b = a + 1 to 7 do
      add (Printf.sprintf "[%d,%d]/DAYS:during:WEEKS" a b)
    done
  done;
  let n_fixed = List.length !l in
  for i = 0 to 1152 - n_fixed - 1 do
    add (Printf.sprintf "[1..5]/DAYS:during:WEEKS - %s" (holiday_literal i 6))
  done;
  Array.of_list (List.rev !l)

let cal_read_syms = 8

let cal_read_request ~sym:s expr =
  Printf.sprintf
    "retrieve (trades.day, trades.sym, trades.qty, trades.price) from trades where trades.sym = \
     '%s' and trades.qty <= 100 on \"%s\""
    (sym s) expr

(* Blocks of 64 requests: each hot expression exactly 3 times (48, 75%)
   plus 16 tail draws (25%), shuffled. Fixing the composition per block
   keeps the latency mix, and so p50/p90, from drifting with the seed. *)
let cal_read ~seed ~round_requests =
  let st = rng seed 1 in
  let _, load = seed_load st in
  let st = rng seed 2 in
  let block () =
    let hot =
      Array.init 48 (fun i -> cal_read_request ~sym:(Random.State.int st cal_read_syms) hot_exprs.(i mod 16))
    in
    let tail =
      Array.init 16 (fun _ ->
          cal_read_request ~sym:(Random.State.int st cal_read_syms)
            tail_exprs.(Random.State.int st (Array.length tail_exprs)))
    in
    let b = Array.append hot tail in
    shuffle st b;
    b
  in
  let stream = Array.concat (List.init ((round_requests + 63) / 64) (fun _ -> block ())) in
  {
    name = "cal_read";
    setup = trades_schema @ load;
    warmup = Array.to_list (Array.map (cal_read_request ~sym:0) hot_exprs);
    stream = Array.sub stream 0 round_requests;
    final_checks = [ "retrieve (n = count()) from trades" ];
  }

(* --- ingest ---------------------------------------------------------- *)

(* Keys (day, sym) of live rows, for replace/delete targets. *)
type keys = { mutable k : (int * int) array; mutable n : int }

let add_key ks key =
  if ks.n = Array.length ks.k then begin
    let k = Array.make (max 16 (2 * ks.n)) (0, 0) in
    Array.blit ks.k 0 k 0 ks.n;
    ks.k <- k
  end;
  ks.k.(ks.n) <- key;
  ks.n <- ks.n + 1

let take_key st ks ~remove =
  let i = Random.State.int st ks.n in
  let key = ks.k.(i) in
  if remove then begin
    ks.k.(i) <- ks.k.(ks.n - 1);
    ks.n <- ks.n - 1
  end;
  key

(* Blocks of 4 requests: 3 write batches and 1 indexed range read,
   shuffled. A write batch is 8 statements — 6 appends, 1 replace and
   1 delete of existing keys — and journals as one commit group. *)
let ingest ~seed ~round_requests =
  let st = rng seed 1 in
  let rows, load = seed_load st in
  let ks = { k = [||]; n = 0 } in
  Array.iter (fun (d, s, _, _) -> add_key ks (d, s)) rows;
  let st = rng seed 3 in
  let write () =
    let stmts =
      Array.init 8 (fun i ->
          if i < 6 then begin
            let ((d, s, _, _) as row) = random_row st in
            add_key ks (d, s);
            append_row row
          end
          else if i = 6 then
            let d, s = take_key st ks ~remove:false in
            Printf.sprintf
              "replace trades (qty = qty + 1) where trades.day = @%d and trades.sym = '%s'" d
              (sym s)
          else
            let d, s = take_key st ks ~remove:true in
            Printf.sprintf "delete trades where trades.day = @%d and trades.sym = '%s'" d (sym s))
    in
    shuffle st stmts;
    String.concat "; " (Array.to_list stmts)
  in
  let read () =
    let a = 1 + Random.State.int st (lifespan_days - 2) in
    Printf.sprintf
      "retrieve (trades.day, trades.sym, trades.qty) from trades where trades.day >= @%d and \
       trades.day <= @%d"
      a (a + 2)
  in
  let stream =
    Array.concat
      (List.init ((round_requests + 3) / 4) (fun _ ->
           let b = [| `W; `W; `W; `R |] in
           shuffle st b;
           Array.map (function `W -> write () | `R -> read ()) b))
  in
  {
    name = "ingest";
    setup = trades_schema @ load;
    warmup = [];
    stream = Array.sub stream 0 round_requests;
    final_checks = [ "retrieve (n = count()) from trades" ];
  }

(* --- rules_tick ------------------------------------------------------ *)

(* 64 time-based rules: 48 translatable (closed-form Periodic probes)
   and 16 that are not — weekdays, month ends and month days net of a
   holiday literal — which fall back to the interval-set paths. The
   protocol splits statements on ';', so no rule uses caloperate. *)
let rule_exprs ~seed =
  let st = rng seed 4 in
  let translatable =
    List.init 7 (fun d -> Printf.sprintf "[%d]/DAYS:during:WEEKS" (d + 1))
    @ List.map (Printf.sprintf "[%s]/DAYS:during:MONTHS")
        [ "1"; "5"; "10"; "15"; "20"; "25"; "28"; "n" ]
    @ List.concat
        (List.init 4 (fun k ->
             List.init 5 (fun d ->
                 Printf.sprintf "[%d]/([%d]/DAYS:during:WEEKS):overlaps:MONTHS" (k + 1) (d + 1))))
    @ List.init 4 (fun k -> Printf.sprintf "[%d]/WEEKS:overlaps:MONTHS" (k + 1))
    @ [
        "[n]/([5]/DAYS:during:WEEKS):overlaps:MONTHS";
        "[1]/([1..5]/DAYS:during:WEEKS):during:MONTHS";
        "[n]/([1..5]/DAYS:during:WEEKS):during:MONTHS";
        "[1]/DAYS:during:YEARS";
        "[n]/DAYS:during:YEARS";
        "[2]/WEEKS:overlaps:YEARS";
        "[1,4]/DAYS:during:WEEKS";
        "[2]/DAYS:during:WEEKS + [4]/DAYS:during:WEEKS";
        "[1..5]/DAYS:during:WEEKS";
      ]
  in
  let fallback =
    List.init 8 (fun i ->
        Printf.sprintf "[%d]/DAYS:during:WEEKS - %s" (1 + (i mod 5))
          (holiday_literal (Random.State.bits st) 40))
    @ List.init 4 (fun i ->
          Printf.sprintf "[n]/([1..5]/DAYS:during:WEEKS):during:MONTHS - %s"
            (holiday_literal (Random.State.bits st + i) 40))
    @ List.init 4 (fun i ->
          Printf.sprintf "[%d]/DAYS:during:MONTHS - %s" ((i * 7) + 1)
            (holiday_literal (Random.State.bits st + i) 40))
  in
  translatable @ fallback

let rules_tick ~seed ~round_requests =
  let rules =
    List.mapi
      (fun i e ->
        Printf.sprintf "define rule r%02d on calendar \"%s\" do append log (rule = 'r%02d', n = %d)"
          i e i i)
      (rule_exprs ~seed)
  in
  let rec chunks = function
    | [] -> []
    | l ->
      let rec take n acc = function
        | x :: r when n > 0 -> take (n - 1) (x :: acc) r
        | r -> (List.rev acc, r)
      in
      let c, r = take 8 [] l in
      String.concat "; " c :: chunks r
  in
  {
    name = "rules_tick";
    setup = "create table log (rule text, n int)" :: chunks rules;
    warmup = [];
    stream = Array.make round_requests "advance 7";
    final_checks = [ "retrieve (n = count()) from log" ];
  }

let names = [ "cal_read"; "ingest"; "rules_tick" ]

(* Requests per round: about a quarter of a 10 s run each on a 2-core
   host, and fixed, so a round's work — and the server's peak memory —
   does not depend on how fast it ran. rules_tick's 1500 weekly
   advances stay inside the 40-year lifespan. *)
let make name ~seed =
  match name with
  | "cal_read" -> Some (cal_read ~seed ~round_requests:256)
  | "ingest" -> Some (ingest ~seed ~round_requests:2048)
  | "rules_tick" -> Some (rules_tick ~seed ~round_requests:1500)
  | _ -> None
