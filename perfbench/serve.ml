(* The served side: spawn the real [calq serve] binary, drive it over a
   Unix socket with one closed-loop connection, and stop it.

   Everything lives under [work_dir] inside the checkout; the socket
   address is relative so it never hits the sun_path length limit. *)

let work_dir = ".perfbench_run"
let calq_exe = "_build/default/bin/calq.exe"
let sock = Filename.concat work_dir "calq.sock"
let journal = Filename.concat work_dir "journal"

(* The server's whole environment, fixed and the same on both sides of
   any comparison: one domain (the client owns the other core),
   per-record journal sync, the default admission bound and deadlines. *)
let server_env =
  [
    ("CALRULES_DOMAINS", "1");
    ("CALRULES_JOURNAL_GROUP", "1");
    ("CALQ_MAX_QUEUE", "64");
    ("CALQ_REQUEST_DEADLINE_MS", "30000");
    ("CALQ_IDLE_TIMEOUT_MS", "300000");
  ]

(* The session parameters [calq serve] uses by default. *)
let epoch = Unit_system.default_epoch
let lifespan = (Civil.make epoch.Civil.year 1 1, Civil.make (epoch.Civil.year + 39) 12 31)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let remove_journal_files () =
  if Sys.file_exists work_dir then
    Array.iter
      (fun f ->
        if String.length f >= 7 && String.sub f 0 7 = "journal" then
          Sys.remove (Filename.concat work_dir f))
      (Sys.readdir work_dir)

let file_size p = try (Unix.stat p).Unix.st_size with Unix.Unix_error _ -> 0

type server = {
  pid : int;
  stdin_w : out_channel;
  stdout_r : Unix.file_descr;
  mutable reaped : bool;
}

exception Server_failed of string

let read_status pid key =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> None
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> None
      | l ->
        let k = String.length key in
        if String.length l > k && String.sub l 0 k = key then
          Some (String.trim (String.sub l (k + 1) (String.length l - k - 1)))
        else go ()
    in
    let r = go () in
    close_in ic;
    r

(* Peak resident set of the server, in MiB. *)
let vm_hwm_mb pid =
  match read_status pid "VmHWM" with
  | Some v -> (
    match String.split_on_char ' ' v |> List.filter (( <> ) "") with
    | kb :: _ -> float_of_string kb /. 1024.
    | [] -> nan)
  | None -> nan

(* User plus system CPU time of [pid], in seconds (clock ticks of 1/100 s). *)
let cpu_seconds pid =
  match open_in (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> nan
  | ic ->
    let l = input_line ic in
    close_in ic;
    let rest = String.sub l (String.rindex l ')' + 2) (String.length l - String.rindex l ')' - 2) in
    let f = Array.of_list (String.split_on_char ' ' rest) in
    (float_of_string f.(11) +. float_of_string f.(12)) /. 100.

(* [(steal, total)] clock ticks of the host's CPUs so far, from the
   aggregate line of /proc/stat: time the hypervisor ran something else
   while this machine's CPUs had work. *)
let host_ticks () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> (0, 0)
  | ic ->
    let l = input_line ic in
    close_in ic;
    let f =
      List.filter_map int_of_string_opt (List.tl (String.split_on_char ' ' l))
    in
    ((match List.nth_opt f 7 with Some s -> s | None -> 0), List.fold_left ( + ) 0 f)

let read_line_timeout fd timeout =
  let buf = Buffer.create 128 in
  let b = Bytes.create 1 in
  let deadline = now () +. timeout in
  let rec go () =
    let left = deadline -. now () in
    if left <= 0. then None
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> None
      | _ -> (
        match Unix.read fd b 0 1 with
        | 0 -> if Buffer.length buf = 0 then None else Some (Buffer.contents buf)
        | _ ->
          if Bytes.get b 0 = '\n' then Some (Buffer.contents buf)
          else begin
            Buffer.add_bytes buf b;
            go ()
          end)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* Start [calq serve] on a fresh journal and wait for its ready line. *)
let start () =
  mkdir_p work_dir;
  remove_journal_files ();
  (try Sys.remove sock with Sys_error _ -> ());
  let argv = [ calq_exe; "serve"; "--journal"; journal; "unix:" ^ sock ] in
  let env =
    Array.of_list
      (List.map (fun (k, v) -> k ^ "=" ^ v) server_env
      @ [ "PATH=" ^ (try Sys.getenv "PATH" with Not_found -> "/usr/bin:/bin") ])
  in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let prog = List.hd argv in
  let pid =
    Unix.create_process_env prog (Array.of_list argv) env in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  let srv = { pid; stdin_w = Unix.out_channel_of_descr in_w; stdout_r = out_r; reaped = false } in
  match read_line_timeout out_r 60. with
  | Some l when String.length l >= 17 && String.sub l 0 17 = "calq: serving on " -> srv
  | other ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    raise
      (Server_failed
         (match other with Some l -> "unexpected server output: " ^ l | None -> "server did not start"))

(* Ask the server to drain and exit; kill it if it has not within 20 s.
   Always reaps the child. *)
let stop srv =
  (try
     output_string srv.stdin_w "stop\n";
     close_out srv.stdin_w
   with Sys_error _ -> ());
  let deadline = now () +. 20. in
  let rec drain () =
    match read_line_timeout srv.stdout_r (deadline -. now ()) with
    | Some _ -> drain ()
    | None -> ()
  in
  drain ();
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | 0, _ ->
      if now () > deadline then begin
        (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] srv.pid)
      end
      else begin
        Unix.sleepf 0.01;
        reap ()
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
  in
  reap ();
  srv.reaped <- true;
  (try Unix.close srv.stdout_r with Unix.Unix_error _ -> ());
  try Sys.remove sock with Sys_error _ -> ()

(* Cleanup after a failed round: kill and reap a server [stop] did not. *)
let kill srv =
  if not srv.reaped then begin
    srv.reaped <- true;
    (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] srv.pid) with Unix.Unix_error _ -> ());
    try Unix.close srv.stdout_r with Unix.Unix_error _ -> ()
  end

(* --- the closed-loop connection ------------------------------------- *)

(** What the client saw for one request: the unescaped payload of an
    [ok] reply, or the message of an [err] reply. A timeout or dropped
    connection is recorded as [Error] too, with a [transport:] prefix. *)
type reply = (string list, string) result

type conn = { mutable client : Cal_server.Client.t option }

let addr = Unix.ADDR_UNIX sock

(* Socket waits are bounded well past the server's request deadline, so
   a wedged server surfaces as a timeout, never a hang. *)
let client_timeout = 60.

let connect () = { client = Some (Cal_server.Client.connect ~timeout:client_timeout addr) }

let close c =
  match c.client with
  | Some cl ->
    (try Cal_server.Client.close cl with _ -> ());
    c.client <- None
  | None -> ()

(* One request, closed loop: the reply is read in full before returning.
   A transport failure drops the connection; the next request opens a
   fresh one. Nothing is retried. *)
let request c line : reply =
  match
    match c.client with
    | Some cl -> cl
    | None ->
      let cl = Cal_server.Client.connect ~timeout:client_timeout addr in
      c.client <- Some cl;
      cl
  with
  | exception e -> Error ("transport: " ^ Printexc.to_string e)
  | cl -> (
    match Cal_server.Client.request cl line with
    | r -> r
    | exception Cal_server.Client.Protocol_error e ->
      close c;
      Error ("transport: " ^ e)
    | exception Unix.Unix_error (e, _, _) ->
      close c;
      Error ("transport: " ^ Unix.error_message e))

(* A request failed when the whole reply is [err] (or a transport
   failure) or any statement in it failed. *)
let failed (r : reply) =
  match r with
  | Error _ -> true
  | Ok lines -> List.exists (fun l -> String.length l >= 4 && String.sub l 0 4 = "err ") lines
