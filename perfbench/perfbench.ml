(* perfbench — the served end-to-end benchmark.

   perfbench --workload NAME --seed N --seconds S --trace 0|1

   Spawns the real [calq serve] binary, drives it over a Unix socket with
   one closed-loop connection (the next request goes out only after the
   previous reply is read in full), checks every reply against an
   in-process oracle, and prints one JSON result as its last line. A run
   is a series of rounds — fresh server, set-up, one fixed stream of
   requests — repeated until S seconds have been measured.

   --trace 0 reports the end-to-end metrics. --trace 1 also replays the
   stream in-process through the layers' public functions with timing
   spans and reports the per-layer metrics instead. See README.md. *)

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* --- small helpers ---------------------------------------------------- *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let r = p *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i >= n - 1 then sorted.(n - 1)
    else sorted.(i) +. ((r -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

let sorted_of l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l = percentile (sorted_of l) 0.5

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let json_str s = "\"" ^ String.escaped s ^ "\""
let json_obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ v) fields) ^ "}"

let own_cpus () = Option.value (Serve.read_status (Unix.getpid ()) "Cpus_allowed_list") ~default:"?"

(* --- one served round -------------------------------------------------- *)

type round = {
  setup_s : float;
  measured_s : float;
  latencies_ms : float list;
  failed : int;
  rss_mb : float;
  client_cpu_s : float;
  server_cpu_s : float;
  steal_share : float;  (** host steal over the measured phase, recorded only *)
  server_cpus : string;  (** the server's inherited placement *)
  journal_bytes : int;  (** written during the measured phase *)
  mismatches : string list;
}

let cpu_time () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let show = function Ok l -> "ok: " ^ String.concat " / " l | Error e -> "err: " ^ e

let run_round (w : Workload.t) (oracle : Inproc.plain) ~recover =
  let mismatches = ref [] in
  let check what i expected got =
    if expected <> got && List.length !mismatches < 5 then
      mismatches :=
        Printf.sprintf "%s %d: expected %s, got %s" what i (show expected) (show got)
        :: !mismatches
  in
  let t0 = Serve.now () in
  let srv = Serve.start () in
  let server_cpus = Option.value (Serve.read_status srv.Serve.pid "Cpus_allowed_list") ~default:"?" in
  Fun.protect
    ~finally:(fun () -> Serve.kill srv)
    (fun () ->
      let c = Serve.connect () in
      List.iteri
        (fun i line -> check "set-up" i oracle.Inproc.expected_setup.(i) (Serve.request c line))
        (w.setup @ w.warmup);
      let setup_s = Serve.now () -. t0 in
      let j0 = Serve.file_size Serve.journal in
      let n = Array.length w.stream in
      let lat = Array.make n 0. in
      let failed = ref 0 in
      let cpu0 = cpu_time () in
      let scpu0 = Serve.cpu_seconds srv.Serve.pid in
      let steal0, total0 = Serve.host_ticks () in
      let m0 = Serve.now () in
      for i = 0 to n - 1 do
        let t = Serve.now () in
        let r = Serve.request c w.stream.(i) in
        lat.(i) <- (Serve.now () -. t) *. 1e3;
        if Serve.failed r then begin
          if !failed < 3 then
            Printf.eprintf "perfbench: request %d failed: %s -> %s\n%!" i w.stream.(i) (show r);
          incr failed
        end;
        check "request" i oracle.Inproc.expected.(i) r
      done;
      let measured_s = Serve.now () -. m0 in
      let steal1, total1 = Serve.host_ticks () in
      let client_cpu_s = cpu_time () -. cpu0 in
      let server_cpu_s = Serve.cpu_seconds srv.Serve.pid -. scpu0 in
      let journal_bytes = Serve.file_size Serve.journal - j0 in
      let rss_mb = Serve.vm_hwm_mb srv.Serve.pid in
      List.iteri
        (fun i line -> check "final check" i oracle.Inproc.expected_final.(i) (Serve.request c line))
        w.final_checks;
      check "digest" 0 (Ok [ "digest " ^ oracle.Inproc.digest ]) (Serve.request c "?digest");
      Serve.close c;
      Serve.stop srv;
      if recover then begin
        let d = Inproc.recovered_digest () in
        if d <> oracle.Inproc.digest then
          mismatches :=
            Printf.sprintf "recovered journal digest %s <> oracle %s" d oracle.Inproc.digest
            :: !mismatches
      end;
      {
        setup_s;
        measured_s;
        latencies_ms = Array.to_list lat;
        failed = !failed;
        rss_mb;
        client_cpu_s;
        server_cpu_s;
        steal_share = float_of_int (steal1 - steal0) /. float_of_int (max 1 (total1 - total0));
        journal_bytes;
        server_cpus;
        mismatches = List.rev !mismatches;
      })

(* --- main --------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  one of " ^ String.concat ", " Workload.names);
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_int seconds, "S  measured time per run");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end metrics, or per-layer metrics");
    ]
    (fun a -> die "unexpected argument %s" a)
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if !seconds < 1 then die "--seconds must be >= 1";
  (* A server that dies mid-round must surface as failed requests, not
     kill the generator on its next write. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if not (Sys.file_exists Serve.calq_exe) then die "%s is not built" Serve.calq_exe;
  let w =
    match Workload.make !workload ~seed:!seed with
    | Some w -> w
    | None -> die "unknown workload %S (expected %s)" !workload (String.concat ", " Workload.names)
  in
  Serve.mkdir_p Serve.work_dir;
  (* In-process work first, so the client is idle but for its socket
     while the server is measured. *)
  let oracle = Inproc.plain w in
  let traced = if !trace = 1 then Some (Inproc.traced w) else None in
  Gc.compact ();
  let wall0 = Serve.now () in
  (* Rounds until [seconds] are measured; at least three, so set-up time
     is a median, and none started after 120 s of wall time. *)
  let rec rounds acc measured k =
    if (measured >= float_of_int !seconds && k >= 3) || (k >= 1 && Serve.now () -. wall0 > 120.)
    then List.rev acc
    else
      let r = run_round w oracle ~recover:(w.Workload.name = "ingest" && k = 0) in
      (let l = sorted_of r.latencies_ms in
       Printf.eprintf "perfbench: round %d: setup %.3f s, %d requests in %.3f s, p50 %.4f ms, p90 %.4f ms\n%!" k
         r.setup_s (Array.length l) r.measured_s (percentile l 0.5) (percentile l 0.9));
      rounds (r :: acc) (measured +. r.measured_s) (k + 1)
  in
  let rs =
    try rounds [] 0. 0 with Serve.Server_failed e -> die "server failed: %s" e
  in
  let mismatches = List.concat_map (fun r -> r.mismatches) rs in
  let traced_mismatch =
    match traced with
    | Some t when t.Inproc.replies <> oracle.Inproc.expected -> [ "traced replay replies differ from the oracle" ]
    | _ -> []
  in
  let mismatches = mismatches @ traced_mismatch in
  List.iter (fun m -> prerr_endline ("perfbench: MISMATCH " ^ m)) mismatches;
  let attempted = List.fold_left (fun n r -> n + List.length r.latencies_ms) 0 rs in
  let failed = List.fold_left (fun n r -> n + r.failed) 0 rs in
  (* Every round runs the same stream, so each metric is the median of
     its per-round values: one round disturbed by other load on the host
     does not move it. *)
  let per_round f = median (List.map f rs) in
  let round_rps r = float_of_int (List.length r.latencies_ms) /. r.measured_s in
  let round_p q r = percentile (sorted_of r.latencies_ms) q in
  let rps = per_round round_rps in
  let p50 = per_round (round_p 0.5) and p90 = per_round (round_p 0.9) in
  let setup_s = per_round (fun r -> r.setup_s) in
  let rss = per_round (fun r -> r.rss_mb) in
  let server_cpu_us =
    per_round (fun r -> r.server_cpu_s *. 1e6 /. float_of_int (List.length r.latencies_ms))
  in
  let client_cpu_us = List.fold_left (fun s r -> s +. r.client_cpu_s) 0. rs *. 1e6 /. float_of_int attempted in
  let user_bytes =
    Array.fold_left
      (fun n line ->
        match Cal_server.Protocol.parse line with
        | Ok (Cal_server.Protocol.Writes _) -> n + String.length line + 1
        | _ -> n)
      0 w.Workload.stream
  in
  let journal_ratio =
    if user_bytes = 0 then 0.
    else median (List.map (fun r -> float_of_int r.journal_bytes /. float_of_int user_bytes) rs)
  in
  let inproc_p50_ms =
    percentile (sorted_of (Array.to_list (Array.map (fun t -> float_of_int t /. 1e6) oracle.Inproc.times_ns))) 0.5
  in
  let n_stream = float_of_int (Array.length w.Workload.stream) in
  let rounds_json f = "[" ^ String.concat ", " (List.map (fun r -> json_num (f r)) rs) ^ "]" in
  let context =
    json_obj
      [
        ("rev", json_str (Option.value (Sys.getenv_opt "PERFBENCH_REV") ~default:"unknown"));
        ("workload", json_str w.Workload.name);
        ("seed", json_num (float_of_int !seed));
        ("seconds", json_num (float_of_int !seconds));
        ("trace", json_num (float_of_int !trace));
        ("nproc", json_str (Option.value (Sys.getenv_opt "PERFBENCH_NPROC") ~default:"unknown"));
        ("host_domains", json_num (float_of_int (Domain.recommended_domain_count ())));
        ("client_cpus", json_str (own_cpus ()));
        ("server_cpus", json_str (match rs with r :: _ -> r.server_cpus | [] -> "?"));
        ("server_env", json_obj (List.map (fun (k, v) -> (k, json_str v)) Serve.server_env));
        ("journal_policy", json_str "Sync_each: one write per commit group, no fsync");
        ("rounds", json_num (float_of_int (List.length rs)));
        ("requests_per_round", json_num n_stream);
        ("requests", json_num (float_of_int attempted));
        ("samples_above_p90_per_round", json_num (Float.floor (n_stream /. 10.)));
        ("failed", json_num (float_of_int failed));
        ("err_share", json_num (float_of_int failed /. float_of_int (max 1 attempted)));
        ("client_cpu_us_per_req", json_num client_cpu_us);
        ("inproc_p50_ms", json_num inproc_p50_ms);
        ("mismatches", json_num (float_of_int (List.length mismatches)));
        ("server_cpu_us_per_req", json_num server_cpu_us);
        ("round_steal_share", rounds_json (fun r -> r.steal_share));
        ("round_rps", rounds_json round_rps);
        ("round_p50_ms", rounds_json (round_p 0.5));
        ("round_p90_ms", rounds_json (round_p 0.9));
        ("round_setup_s", rounds_json (fun r -> r.setup_s));
        ("round_server_rss_mb", rounds_json (fun r -> r.rss_mb));
      ]
  in
  print_endline (json_obj [ ("context", context) ]);
  let metric v unit = json_obj [ ("value", json_num v); ("unit", json_str unit) ] in
  let metrics =
    match traced with
    | None ->
      [
        ("rps", metric rps "req/s");
        ("p50_ms", metric p50 "ms");
        ("p90_ms", metric p90 "ms");
        ("setup_s", metric setup_s "s");
        ("server_rss_mb", metric rss "MiB");
      ]
    | Some t ->
      let traced_p50_ms =
        percentile (sorted_of (Array.to_list (Array.map (fun t -> float_of_int t /. 1e6) t.Inproc.request_ns))) 0.5
      in
      let gc_minor = oracle.Inproc.minor_words /. n_stream in
      let gc_major = float_of_int oracle.Inproc.major_collections *. 1000. /. n_stream in
      List.map
        (fun (name, unit, v) -> (name, metric v unit))
        ([ ("frame.overhead_us", "us", (p50 -. traced_p50_ms) *. 1e3) ]
        @ t.Inproc.layers
        @ [
            ("journal.bytes_per_user_byte", "ratio", journal_ratio);
            ("gc.minor_words_per_req", "words", gc_minor);
            ("gc.major_per_kreq", "count", gc_major);
            ("trace.overhead_ms", "ms", traced_p50_ms -. inproc_p50_ms);
            ("client.cpu_us_per_req", "us", client_cpu_us);
            ("server.cpu_us_per_req", "us", server_cpu_us);
          ])
  in
  print_endline
    (json_obj
       [
         ("correct", if mismatches = [] then "true" else "false");
         ("attempted", json_num (float_of_int attempted));
         ("failed", json_num (float_of_int failed));
         ("metrics", json_obj metrics);
       ])
