(* The socket front-end end-to-end: address and request parsing, a real
   Unix-socket server with framed replies and meta commands, concurrent
   clients multiplexed onto one store, per-connection stats, journaled
   recovery to the served digest, and clean shutdown. *)

module Store = Cal_server.Store
module Server = Cal_server.Server
module Client = Cal_server.Client
module Protocol = Cal_server.Protocol
module Frame = Cal_server.Frame
open Calrules

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let epoch93 = Civil.make 1993 1 1
let lifespan93 = (Civil.make 1993 1 1, Civil.make 1999 12 31)
let session () = Session.create ~epoch:epoch93 ~lifespan:lifespan93 ()

let temp_sock () =
  let p = Filename.temp_file "calq_srv" ".sock" in
  Sys.remove p;
  p

let request_exn c line =
  match Client.request c line with
  | Ok lines -> lines
  | Error e -> Alcotest.failf "request %S failed: %s" line e

(* Start a server on a fresh Unix socket, run [f], always stop. *)
let with_server ?config ?store f =
  let store = match store with Some s -> s | None -> Store.of_session (session ()) in
  let path = temp_sock () in
  let server = Server.start ?config store (Unix.ADDR_UNIX path) in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f store server path)

(* Short-fuse config for the robustness matrix. *)
let snappy =
  {
    Server.request_deadline_s = 0.15;
    idle_timeout_s = 0.25;
    drain_timeout_s = 2.0;
  }

(* ------------------------------------------------------------------ *)
(* Parsing *)

let test_sockaddr_parsing () =
  (match Protocol.sockaddr_of_string "unix:/tmp/x.sock" with
  | Unix.ADDR_UNIX p -> Alcotest.(check string) "unix path" "/tmp/x.sock" p
  | _ -> Alcotest.fail "expected ADDR_UNIX");
  (match Protocol.sockaddr_of_string "127.0.0.1:7070" with
  | Unix.ADDR_INET (_, port) -> check_int "tcp port" 7070 port
  | _ -> Alcotest.fail "expected ADDR_INET");
  List.iter
    (fun bad ->
      match Protocol.sockaddr_of_string bad with
      | exception Failure _ -> ()
      | _ -> Alcotest.failf "address %S should be rejected" bad)
    [ "nocolon"; "host:notaport"; "" ]

let test_request_classification () =
  (match Protocol.parse "retrieve (t.n) from t" with
  | Ok (Protocol.Reads [ _ ]) -> ()
  | _ -> Alcotest.fail "single retrieve classifies as a read batch");
  (match Protocol.parse "retrieve (t.n) from t; retrieve (t.n) from t" with
  | Ok (Protocol.Reads [ _; _ ]) -> ()
  | _ -> Alcotest.fail "all-retrieve line is one read batch");
  (match Protocol.parse "append t (n = 1); retrieve (t.n) from t" with
  | Ok (Protocol.Writes [ Store.Query _; Store.Query _ ]) -> ()
  | _ -> Alcotest.fail "mixed line is one write batch");
  (match Protocol.parse "advance 3" with
  | Ok (Protocol.Writes [ Store.Advance 3 ]) -> ()
  | _ -> Alcotest.fail "advance is a write statement");
  (match Protocol.parse "?digest" with
  | Ok Protocol.Digest -> ()
  | _ -> Alcotest.fail "?digest meta");
  (match Protocol.parse "?bogus" with
  | Error _ -> ()
  | _ -> Alcotest.fail "unknown meta rejected");
  match Protocol.parse "" with
  | Error _ -> ()
  | _ -> Alcotest.fail "empty line rejected"

(* ------------------------------------------------------------------ *)
(* One client, end to end *)

let test_single_client_roundtrip () =
  with_server @@ fun store _server _path ->
  let c = Client.connect (Server.addr _server) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  ignore (request_exn c "create table t (a int, b text)");
  ignore (request_exn c "append t (a = 1, b = 'x'); append t (a = 2, b = 'y')");
  let rows = request_exn c "retrieve (t.a, t.b) from t" in
  check_int "header + 2 rows" 3 (List.length rows);
  check_bool "header line" true (String.length (List.hd rows) > 0 && (List.hd rows).[0] = '#');
  (* Meta commands. *)
  (match request_exn c "?epoch" with
  | [ e ] -> check_bool "epoch line" true (String.length e > 6 && String.sub e 0 6 = "epoch ")
  | _ -> Alcotest.fail "?epoch is one line");
  (match request_exn c "?digest" with
  | [ d ] ->
    check_bool "digest matches the store's" true (d = "digest " ^ Store.digest store)
  | _ -> Alcotest.fail "?digest is one line");
  (match request_exn c "?stats" with
  | [ s ] -> check_bool "stats line" true (String.length s > 6 && String.sub s 0 6 = "stats ")
  | _ -> Alcotest.fail "?stats is one line");
  (match request_exn c "?connstats" with
  | [ s ] -> check_bool "connstats line" true (String.sub s 0 6 = "stats ")
  | _ -> Alcotest.fail "?connstats is one line");
  (* A failing statement surfaces as an error reply, and the store
     counts it. *)
  (match Client.request c "bogus nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parse error must surface as err");
  let st = Store.stats store in
  check_bool "reads counted" true (st.Store.sreads >= 1);
  check_bool "writes counted" true (st.Store.swrites >= 2)

(* A write batch is one commit group: the epoch moves once per request
   line, not once per statement. *)
let test_epoch_per_batch () =
  with_server @@ fun store server _path ->
  let c = Client.connect (Server.addr server) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  ignore (request_exn c "create table t (n int)");
  let e0 = Store.epoch store in
  ignore (request_exn c "append t (n = 1); append t (n = 2); append t (n = 3)");
  check_int "three statements, one epoch" (e0 + 1) (Store.epoch store);
  ignore (request_exn c "append t (n = 4)");
  check_int "next batch, next epoch" (e0 + 2) (Store.epoch store)

(* ------------------------------------------------------------------ *)
(* Concurrent clients *)

let test_concurrent_clients () =
  with_server @@ fun store server _path ->
  let setup = Client.connect (Server.addr server) in
  ignore (request_exn setup "create table t (n int)");
  let n_clients = 4 and per_client = 25 in
  let errors = Atomic.make 0 in
  let client id () =
    let c = Client.connect (Server.addr server) in
    for i = 0 to per_client - 1 do
      let ok =
        match Client.request c (Printf.sprintf "append t (n = %d)" ((id * 1000) + i)) with
        | Ok _ -> true
        | Error _ -> false
      in
      let ok2 =
        match Client.request c "retrieve (t.n) from t" with Ok _ -> true | Error _ -> false
      in
      if not (ok && ok2) then Atomic.incr errors
    done;
    Client.close c
  in
  let threads = List.init n_clients (fun id -> Thread.create (client id) ()) in
  List.iter Thread.join threads;
  check_int "no client errors" 0 (Atomic.get errors);
  let rows = request_exn setup "retrieve (t.n) from t" in
  check_int "every append landed" (1 + (n_clients * per_client)) (List.length rows);
  check_bool "connections counted" true (Server.connections server >= n_clients + 1);
  let st = Store.stats store in
  check_int "write batches = append requests + setup"
    ((n_clients * per_client) + 1)
    st.Store.swrites;
  Client.close setup

(* ------------------------------------------------------------------ *)
(* Journaled store: served writes recover to the served digest *)

let test_served_writes_recover () =
  let path = Filename.temp_file "calq_srvj" ".journal" in
  let cleanup () =
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      [ path; path ^ ".snap"; path ^ ".tmp"; path ^ ".snap.tmp"; path ^ ".manifest" ]
  in
  Sys.remove path;
  Fun.protect ~finally:cleanup @@ fun () ->
  let store = Store.open_store ~path () in
  let live_digest =
    with_server ~store @@ fun store server _p ->
    let c = Client.connect (Server.addr server) in
    ignore (request_exn c "create table t (n int)");
    ignore (request_exn c "append t (n = 1); append t (n = 2)");
    ignore (request_exn c "append t (n = 3)");
    Client.close c;
    Store.digest store
  in
  Store.commit store;
  let recovered = Session.recover ~path () in
  let recovered_digest = Digest.to_hex (Digest.string (Session.state_digest recovered)) in
  check_bool "recovery reproduces the served state" true (recovered_digest = live_digest)

(* ------------------------------------------------------------------ *)
(* Shutdown *)

let test_stop_cleans_up () =
  let store = Store.of_session (session ()) in
  let path = temp_sock () in
  let server = Server.start store (Unix.ADDR_UNIX path) in
  let c = Client.connect (Server.addr server) in
  ignore (request_exn c "create table t (n int)");
  (* Stop with the client still connected: server must come back. *)
  Server.stop server;
  check_bool "socket file removed" false (Sys.file_exists path);
  (match Client.connect (Unix.ADDR_UNIX path) with
  | exception _ -> ()
  | _ -> Alcotest.fail "connect after stop must fail");
  (* The store survives the server. *)
  match Store.read store "retrieve (t.n) from t" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "store unusable after stop: %s" e

(* ------------------------------------------------------------------ *)
(* Robustness matrix: dedup, shed, deadline, idle timeout, containment *)

(* The same @id-tagged write twice: the second replays the original
   reply without re-applying; a different id applies fresh. *)
let test_request_id_dedup () =
  with_server @@ fun store server _path ->
  let c = Client.connect (Server.addr server) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  ignore (request_exn c "create table t (n int)");
  let first = request_exn c "@tid-1 append t (n = 1)" in
  let second = request_exn c "@tid-1 append t (n = 1)" in
  check_bool "duplicate replays the original reply" true (first = second);
  let rows = request_exn c "retrieve (t.n) from t" in
  check_int "applied once" 2 (List.length rows) (* header + 1 row *);
  ignore (request_exn c "@tid-2 append t (n = 2)");
  let rows = request_exn c "retrieve (t.n) from t" in
  check_int "fresh id applies" 3 (List.length rows);
  let st = Store.stats store in
  check_int "dedup hit counted" 1 st.Store.sdedup;
  (* The id prefix is accepted and ignored on idempotent requests. *)
  (match request_exn c "@tid-3 ?epoch" with
  | [ e ] -> check_bool "meta with id" true (String.length e > 6 && String.sub e 0 6 = "epoch ")
  | _ -> Alcotest.fail "?epoch with id prefix is one line");
  match Client.request c "@bad!id append t (n = 9)" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed request id must be rejected"

(* The id journals inside the batch's commit group, so dedup survives
   crash recovery: a post-recovery retry of an applied batch is refused. *)
let test_dedup_survives_recovery () =
  let path = Filename.temp_file "calq_dedup" ".journal" in
  let cleanup () =
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      [ path; path ^ ".snap"; path ^ ".tmp"; path ^ ".snap.tmp"; path ^ ".manifest" ]
  in
  Sys.remove path;
  Fun.protect ~finally:cleanup @@ fun () ->
  let store = Store.open_store ~path () in
  (match Store.write_idem ~req_id:"r1" store [ Store.Query "create table t (n int)" ] with
  | Store.Applied [ Ok _ ] -> ()
  | _ -> Alcotest.fail "create applies");
  (match Store.write_idem ~req_id:"r2" store [ Store.Query "append t (n = 7)" ] with
  | Store.Applied [ Ok _ ] -> ()
  | _ -> Alcotest.fail "append applies");
  Store.commit store;
  let recovered = Store.open_store ~path () in
  (match Store.write_idem ~req_id:"r2" recovered [ Store.Query "append t (n = 7)" ] with
  | Store.Duplicate _ -> ()
  | _ -> Alcotest.fail "recovered store must refuse an already-applied id");
  (match Store.read recovered "retrieve (t.n) from t" with
  | Ok (Cal_db.Exec.Rows { rows; _ }) -> check_int "one row after recovery + retry" 1 (List.length rows)
  | _ -> Alcotest.fail "retrieve after recovery");
  (* The reply cache does not survive recovery, but the effect does. *)
  check_bool "dedup counted on recovered store" true
    ((Store.stats recovered).Store.sdedup >= 1);
  (* Snapshot persistence: ids outlive journal truncation too. *)
  Session.snapshot (Store.session recovered);
  let again = Store.open_store ~path () in
  match Store.write_idem ~req_id:"r2" again [ Store.Query "append t (n = 7)" ] with
  | Store.Duplicate _ -> ()
  | _ -> Alcotest.fail "id set must survive a durable snapshot"

(* max_queue = 0 sheds every write at admission, as a retryable error,
   while reads still flow. *)
let test_shed_at_admission_bound () =
  let store = Store.of_session ~max_queue:0 (session ()) in
  (match Store.write_idem store [ Store.Query "create table t (n int)" ] with
  | Store.Overloaded -> ()
  | _ -> Alcotest.fail "zero-width admission queue sheds every write");
  check_int "shed counted" 1 (Store.stats store).Store.sshed;
  with_server ~store @@ fun _store server _path ->
  let c = Client.connect (Server.addr server) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match Client.request c "create table t (n int)" with
  | Error msg ->
    check_bool "shed is retryable on the wire" true
      (String.length msg >= 9 && String.sub msg 0 9 = "retryable")
  | Ok _ -> Alcotest.fail "write through a full queue must shed");
  match Client.request c "?epoch" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "reads must flow during shed: %s" e

(* A write that cannot reach the busy writer before its deadline times
   out (retryable); one that can, lands. *)
let test_deadline_expiry () =
  with_server ~config:snappy @@ fun store server _path ->
  let c = Client.connect (Server.addr server) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  ignore (request_exn c "create table t (n int)");
  let holder = Thread.create (fun () -> Store.occupy_writer store 0.6) () in
  Thread.delay 0.05;
  (match Client.request c "append t (n = 1)" with
  | Error msg ->
    check_bool "deadline error is retryable" true
      (String.length msg >= 9 && String.sub msg 0 9 = "retryable")
  | Ok _ -> Alcotest.fail "write under an occupied writer must miss its 150ms deadline");
  Thread.join holder;
  check_bool "timeout counted" true ((Store.stats store).Store.stimeouts >= 1);
  (* Writer free again: the same statement lands (fresh connection — the
     first one sat idle past the 250ms idle timeout during the hold). *)
  let c2 = Client.connect (Server.addr server) in
  Fun.protect ~finally:(fun () -> Client.close c2) @@ fun () ->
  ignore (request_exn c2 "append t (n = 1)")

(* An idle connection is told why and closed; the server keeps serving. *)
let test_idle_timeout () =
  with_server ~config:snappy @@ fun _store server _path ->
  let c = Client.connect (Server.addr server) in
  let got =
    match Client.request c "?epoch" with
    | Ok _ -> (
      Thread.delay 0.7;
      (* Well past the 250ms idle timeout: the server has sent its
         parting err and shut the connection down. *)
      match Client.request c "?epoch" with
      | Ok _ -> Alcotest.fail "idle connection must be closed"
      | Error msg -> `Err msg
      | exception Client.Protocol_error _ -> `Dropped)
    | Error e -> Alcotest.failf "first request failed: %s" e
    | exception Client.Protocol_error e -> Alcotest.failf "first request failed: %s" e
  in
  (match got with
  | `Err msg -> check_bool "idle close says why" true (msg = "idle timeout")
  | `Dropped -> ());
  (try Unix.close c.Client.fd with Unix.Unix_error _ -> ());
  check_bool "idle drop counted" true (Server.idle_drops server >= 1);
  (* New connections are unaffected. *)
  let c2 = Client.connect (Server.addr server) in
  Fun.protect ~finally:(fun () -> Client.close c2) @@ fun () ->
  ignore (request_exn c2 "?epoch")

(* Abrupt disconnects — mid-line, mid-exchange, en masse — stay
   contained: each closes one connection, and the accept loop keeps
   accepting. *)
let test_error_containment () =
  with_server @@ fun _store server _path ->
  let setup = Client.connect (Server.addr server) in
  ignore (request_exn setup "create table t (n int)");
  for i = 0 to 9 do
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Server.addr server);
    (* Half a request — no newline — then vanish. *)
    let torn = Printf.sprintf "append t (n = %d" i in
    ignore (Unix.write_substring fd torn 0 (String.length torn));
    Unix.close fd
  done;
  (* Partial lines were discarded, nothing applied, server still up. *)
  let rows = request_exn setup "retrieve (t.n) from t" in
  check_int "torn requests never execute" 1 (List.length rows) (* header only *);
  (* A request completed on a fresh connection proves the accept loop
     reached it, and the listen backlog is FIFO: the ten torn connections
     ahead of it were accepted (and counted) first. Checking the counter
     without this races the accept thread. *)
  let fresh = Client.connect (Server.addr server) in
  ignore (request_exn fresh "retrieve (t.n) from t");
  Client.close fresh;
  check_bool "accept loop survived" true (Server.connections server >= 11);
  Client.close setup

(* Random bytes, torn frames and oversized lines never crash the
   server: every connection ends in a well-formed err or a clean close,
   and a well-formed client afterwards gets a well-formed answer. *)
let test_protocol_fuzz () =
  with_server @@ fun store server _path ->
  let setup = Client.connect (Server.addr server) in
  ignore (request_exn setup "create table t (n int)");
  ignore (request_exn setup "append t (n = 42)");
  let digest_before = Store.digest store in
  let rng = Random.State.make [| 0xF00D; 0xBEEF |] in
  for _ = 1 to 60 do
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Server.addr server);
    let len = Random.State.int rng 400 in
    let junk =
      String.init len (fun _ ->
          (* Bias toward newlines and printable junk, with raw bytes mixed in. *)
          match Random.State.int rng 10 with
          | 0 -> '\n'
          | 1 -> Char.chr (Random.State.int rng 256)
          | _ -> Char.chr (32 + Random.State.int rng 95))
    in
    (try ignore (Unix.write_substring fd junk 0 (String.length junk))
     with Unix.Unix_error _ -> ());
    (* Half the time read whatever comes back; it must frame as ok/err. *)
    if Random.State.bool rng then begin
      Frame.set_recv_timeout fd 0.5;
      let r = Cal_server.Frame.reader fd in
      match Cal_server.Frame.read_line r with
      | `Line l ->
        check_bool "reply frames as ok/err" true
          (String.length l >= 3 && (String.sub l 0 3 = "ok " || String.sub l 0 4 = "err "))
      | `Eof | `Timeout | `Closed _ | `Too_long -> ()
    end;
    try Unix.close fd with Unix.Unix_error _ -> ()
  done;
  (* One oversized frame: answered and closed, not crashed. *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Server.addr server);
  let big = String.make (1 lsl 21) 'a' in
  (try
     ignore (Unix.write_substring fd big 0 (String.length big));
     ignore (Unix.write_substring fd "\n" 0 1)
   with Unix.Unix_error _ -> ());
  Frame.set_recv_timeout fd 2.0;
  let r = Cal_server.Frame.reader fd in
  (match Cal_server.Frame.read_line r with
  | `Line l -> check_bool "oversized frame answered" true (l = "err frame too long")
  | `Eof | `Closed _ -> () (* closed before we read: also acceptable *)
  | `Timeout -> Alcotest.fail "server hung on oversized frame"
  | `Too_long -> Alcotest.fail "reply itself oversized");
  (try Unix.close fd with Unix.Unix_error _ -> ());
  (* The fuzz barrage changed nothing and the server still serves. *)
  check_bool "fuzz applied no writes" true (Store.digest store = digest_before);
  let rows = request_exn setup "retrieve (t.n) from t" in
  check_int "well-formed client still served" 2 (List.length rows);
  Client.close setup

(* The retrying client layer: converges through sheds, attaches one id
   across attempts, and respects its overall deadline. *)
let test_retrying_client () =
  with_server @@ fun store server _path ->
  ignore (Store.write store [ Store.Query "create table t (n int)" ]);
  let addr = Server.addr server in
  (* Occupy the writer briefly: the first attempts shed on deadline or
     queue, then the retry lands — exactly once. *)
  let holder = Thread.create (fun () -> Store.occupy_writer store 0.3) () in
  Thread.delay 0.02;
  (match Client.run ~retries:20 ~timeout_s:5.0 ~addr "append t (n = 5)" with
  | Ok _ -> ()
  | Error (Client.Server_error e) | Error (Client.Exhausted e) ->
    Alcotest.failf "retrying write failed: %s" e);
  Thread.join holder;
  (match Store.read store "retrieve (t.n) from t" with
  | Ok (Cal_db.Exec.Rows { rows; _ }) -> check_int "retried write applied once" 1 (List.length rows)
  | _ -> Alcotest.fail "retrieve");
  (* A non-retryable server error comes back immediately, not retried. *)
  (match Client.run ~retries:3 ~timeout_s:2.0 ~addr "append missing (n = 1)" with
  | Error (Client.Server_error _) -> ()
  | Ok _ -> Alcotest.fail "bad append must fail"
  | Error (Client.Exhausted _) -> Alcotest.fail "semantic errors must not be retried");
  (* Deadline expiry: against a dead address the call gives up in time. *)
  let t0 = Unix.gettimeofday () in
  match
    Client.run ~retries:1000 ~timeout_s:0.4
      ~addr:(Unix.ADDR_UNIX "/nonexistent/calq-chaos.sock")
      "append t (n = 6)"
  with
  | Error (Client.Exhausted _) ->
    check_bool "deadline respected" true (Unix.gettimeofday () -. t0 < 2.0)
  | Ok _ | Error (Client.Server_error _) -> Alcotest.fail "dead address must exhaust"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [
          Alcotest.test_case "sockaddr parsing" `Quick test_sockaddr_parsing;
          Alcotest.test_case "request classification" `Quick test_request_classification;
        ] );
      ( "socket",
        [
          Alcotest.test_case "single client roundtrip" `Quick test_single_client_roundtrip;
          Alcotest.test_case "epoch per write batch" `Quick test_epoch_per_batch;
          Alcotest.test_case "concurrent clients" `Quick test_concurrent_clients;
          Alcotest.test_case "journaled recovery of served writes" `Quick
            test_served_writes_recover;
          Alcotest.test_case "stop cleans up" `Quick test_stop_cleans_up;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "request id dedup" `Quick test_request_id_dedup;
          Alcotest.test_case "dedup survives recovery" `Quick test_dedup_survives_recovery;
          Alcotest.test_case "shed at admission bound" `Quick test_shed_at_admission_bound;
          Alcotest.test_case "deadline expiry" `Quick test_deadline_expiry;
          Alcotest.test_case "idle timeout" `Quick test_idle_timeout;
          Alcotest.test_case "error containment" `Quick test_error_containment;
          Alcotest.test_case "protocol fuzz" `Quick test_protocol_fuzz;
          Alcotest.test_case "retrying client" `Quick test_retrying_client;
        ] );
    ]
