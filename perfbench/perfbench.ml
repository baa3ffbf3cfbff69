(* Served-path benchmark of the transactional process manager.

   A client thread sends Lang documents over a socketpair to
   [Server.handle_connection] running on the main thread, exactly as
   [tpm serve] runs it, and times each document from its first byte sent
   to the "." line received.  After the served phase the scheduler is
   crashed and restarted from its on-disk WAL.  Every measurement is
   taken from outside the library, by timing calls into its public
   functions; services run in virtual time, so every wall-clock number
   is the process manager's own CPU and I/O cost.

   A session is one connection to a fresh server; a round is the
   workload's fixed list of sessions, each with its own seed derived from
   the run's seed.  One invocation repeats identical rounds until the
   requested measuring time is spent, checks every session against the
   correctness gate (legality and serializability on the first round),
   and checks that every round reproduced the exact counts and the
   history digests of the first.  The last stdout line is the JSON
   result; run.py next to this file builds and runs it.

   usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
                    [--size full|tiny] [--dir DIR] [--commit SHA] *)

open Tpm_core
module Obs = Tpm_obs.Obs
module Metrics = Tpm_sim.Metrics
module Rm = Tpm_subsys.Rm
module Wal = Tpm_wal.Wal
module Recovery = Tpm_wal.Recovery
module Scheduler = Tpm_scheduler.Scheduler
module Server = Tpm_server.Server
module Generator = Tpm_workload.Generator

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Workloads *)

type workload = {
  name : string;
  density : float;  (** conflict density of the generated service universe *)
  fail_rate : float;  (** injected transient invocation failure rate *)
  sync : Wal.sync_policy;  (** the traced run's policy; timed runs use [No_sync] *)
  sessions : int;  (** connections per round, each to a fresh server *)
  docs : int;  (** documents served per session *)
  per_doc : int;  (** processes per document *)
  in_flight : int;
      (** processes offered in-process after the served documents and left
          running at the crash; 0 stops the served scheduler when it is
          quiescent *)
}

let workloads ~tiny =
  let n full small = if tiny then small else full in
  [
    {
      name = "serve-contended";
      density = 0.35;
      fail_rate = 0.05;
      sync = Wal.Group 0.05;
      sessions = n 20 2;
      docs = n 10 3;
      per_doc = 8;
      in_flight = 0;
    };
    {
      name = "serve-stream";
      density = 0.02;
      fail_rate = 0.0;
      sync = Wal.Sync_each;
      sessions = n 2 2;
      docs = n 150 12;
      per_doc = 1;
      in_flight = 0;
    };
    {
      name = "restart";
      density = 0.1;
      fail_rate = 0.0;
      sync = Wal.Group 0.05;
      sessions = n 8 2;
      docs = n 25 3;
      per_doc = 4;
      in_flight = 16;
    };
  ]

let sync_label = function
  | Wal.No_sync -> "no-sync"
  | Wal.Sync_each -> "sync-each"
  | Wal.Group w -> Printf.sprintf "group-%g" w

(* ------------------------------------------------------------------ *)
(* Inputs: everything derives from the seed *)

type inputs = {
  w : workload;
  seed : int;
  params : Generator.params;
  spec : Conflict.t;
  pids : int list array;  (** pids of each document, in document order *)
  texts : string array;  (** Lang text of each document *)
  tail : Process.t list;  (** the in-flight processes of [restart] *)
}

let make_inputs w ~seed =
  let params = { Generator.default_params with conflict_density = w.density } in
  (* the conflict relation is server configuration, drawn as [tpm serve]
     draws it (the generator's default spec seed); the seed picks the
     documents and the subsystems' failure streams *)
  let spec = Generator.spec params in
  let proc pid = Generator.process ~seed params ~pid in
  let docs =
    Array.init w.docs (fun d -> List.init w.per_doc (fun k -> proc ((d * w.per_doc) + k + 1)))
  in
  let texts =
    Array.map
      (fun processes ->
        Lang.print { Lang.spec = Conflict.empty; processes; schedule = None })
      docs
  in
  let first_tail = (w.docs * w.per_doc) + 1 in
  {
    w;
    seed;
    params;
    spec;
    pids = Array.map (List.map Process.pid) docs;
    texts;
    tail = List.init w.in_flight (fun k -> proc (first_tail + k));
  }

(* ------------------------------------------------------------------ *)
(* One served scheduler *)

type system = {
  rms : Rm.t list;
  config : Scheduler.config;
  sched : Scheduler.t;
  srv : Server.t;
  wal_path : string;
}

(* [traced] switches on the admission clock and installs [tracer]; timed
   runs pass both off explicitly, so an inherited TPM_TRACE can never turn
   tracing on *)
let make_system inp ~wal_path ~tracer ~traced =
  let w = inp.w in
  let rms = Generator.rms inp.params ~fail_prob:(fun _ -> w.fail_rate) ~seed:inp.seed () in
  let config =
    {
      Scheduler.default_config with
      seed = inp.seed;
      wal_sync = w.sync;
      admission_clock = (if traced then Some Unix.gettimeofday else None);
    }
  in
  let sched = Scheduler.create ~config ~tracer ~wal_path ~spec:inp.spec ~rms () in
  let srv = Server.create ~config:Server.default_config sched in
  { rms; config; sched; srv; wal_path }

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir dir name =
  let d = Filename.concat dir name in
  rm_rf d;
  Sys.mkdir d 0o755;
  d

(* ------------------------------------------------------------------ *)
(* The served phase: a closed-loop client thread over a socketpair *)

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

let client fd texts lat replies =
  let ic = Unix.in_channel_of_descr fd in
  (try
     Array.iteri
       (fun i text ->
         let t0 = now () in
         write_all fd text;
         write_all fd ".\n";
         let rec read acc =
           match input_line ic with "." -> List.rev acc | l -> read (l :: acc)
         in
         let lines = read [] in
         lat.(i) <- now () -. t0;
         replies.(i) <- lines)
       texts
   with End_of_file | Unix.Unix_error _ -> ());
  try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ()

(* returns per-document latencies, replies and the phase's wall time *)
let serve_socket sys texts =
  let n = Array.length texts in
  let lat = Array.make n nan and replies = Array.make n [] in
  let cfd, sfd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let t0 = now () in
  let th = Thread.create (fun () -> client cfd texts lat replies) () in
  let served =
    match Server.handle_connection sys.srv sfd with
    | () -> Ok ()
    | exception e -> Error (Printexc.to_string e)
  in
  Unix.close sfd;
  Thread.join th;
  let wall = now () -. t0 in
  Unix.close cfd;
  (lat, replies, wall, served)

(* Sink-side attribution of [Server.run] wall time: the gap before each
   trace event is charged to that event's kind.  Approximate by nature —
   an event is emitted after the work it reports, and work with no event
   of its own lands on the next event. *)
type gaps = {
  tbl : (string, float) Hashtbl.t;
  mutable last : float;
  mutable active : bool;
}

let gap_kinds =
  [
    "admission"; "dispatch"; "occurrence"; "wal_append"; "wal_fsync"; "msg"; "note"; "commit";
    "other";
  ]

let charge g kind t =
  let prev = Option.value (Hashtbl.find_opt g.tbl kind) ~default:0.0 in
  Hashtbl.replace g.tbl kind (prev +. (t -. g.last));
  g.last <- t

let gap_sink g =
  Obs.Sink.make (fun _ ev ->
      if g.active then
        let kind = Obs.kind_label ev in
        charge g (if List.mem kind gap_kinds then kind else "other") (now ()))

(* The in-process phase: the same documents in the same order, without
   the socket, with one span around each public call [handle_connection]
   makes: [Lang.parse], each [Server.offer], [Server.run],
   [Scheduler.status].  The replies are rebuilt line for line so the same
   gate checks them. *)
type spans = {
  parse : float array;  (** per document *)
  offer : float array;  (** per document, summed over its processes *)
  mutable offers : float list;  (** per process *)
  run : float array;  (** per document *)
  mutable status : float;  (** total *)
  mutable wall : float;  (** the whole in-process phase *)
}

let status_label = function
  | Schedule.Committed -> "committed"
  | Schedule.Aborted -> "aborted"
  | Schedule.Active -> "shed"

let serve_in_process sys texts gaps =
  let n = Array.length texts in
  let sp =
    {
      parse = Array.make n 0.0;
      offer = Array.make n 0.0;
      offers = [];
      run = Array.make n 0.0;
      status = 0.0;
      wall = 0.0;
    }
  in
  let replies = Array.make n [] in
  let timed f =
    let t0 = now () in
    let r = f () in
    (r, now () -. t0)
  in
  let t_start = now () in
  Array.iteri
    (fun i text ->
      let out = ref [] in
      let send l = out := l :: !out in
      let parsed, dt = timed (fun () -> Lang.parse text) in
      sp.parse.(i) <- dt;
      (match parsed with
      | Error e -> send ("error " ^ Format.asprintf "%a" Lang.pp_error e)
      | Ok doc ->
          let decisions =
            List.map
              (fun proc ->
                let d, dt = timed (fun () -> Server.offer sys.srv proc) in
                sp.offer.(i) <- sp.offer.(i) +. dt;
                sp.offers <- dt :: sp.offers;
                (Process.pid proc, d))
              doc.Lang.processes
          in
          List.iter
            (fun (pid, d) ->
              send (Printf.sprintf "decision %d %s" pid (Server.decision_label d)))
            decisions;
          gaps.last <- now ();
          gaps.active <- true;
          let (), dt = timed (fun () -> Server.run sys.srv) in
          charge gaps "other" (now ());
          gaps.active <- false;
          sp.run.(i) <- dt;
          List.iter
            (fun (pid, d) ->
              match d with
              | Server.Rejected _ -> ()
              | _ ->
                  let st, dt = timed (fun () -> Scheduler.status sys.sched pid) in
                  sp.status <- sp.status +. dt;
                  send (Printf.sprintf "status %d %s" pid (status_label st)))
            decisions;
          send (Printf.sprintf "counters offered=%d" (Server.counters sys.srv).Server.offered));
      replies.(i) <- List.rev !out)
    texts;
  sp.wall <- now () -. t_start;
  (sp, replies)

(* ------------------------------------------------------------------ *)
(* Crash and restart *)

(* [restart] leaves [in_flight] processes running, stepping virtual time
   until some invocation is prepared mid-2PC (bounded), then crashes *)
let leave_in_flight sys inp =
  List.iter (fun p -> ignore (Server.offer sys.srv p)) inp.tail;
  let prepared () = List.exists (fun rm -> Rm.prepared_tokens rm <> []) sys.rms in
  (* under group commit a prepare is durable one window after it is
     logged: crash only once it has been flushed and is still undecided *)
  let window = match inp.w.sync with Wal.Group w -> w | Wal.No_sync | Wal.Sync_each -> 0.0 in
  let flushed_prepare until =
    prepared ()
    &&
    (Server.run ~until:(until +. window) sys.srv;
     prepared ())
  in
  (* the clock stops at the last event, not at the horizon: step the
     horizon itself *)
  let rec step k until =
    Server.run ~until sys.srv;
    if k > 1 && Scheduler.live_count sys.sched > 0 && not (flushed_prepare until) then
      step (k - 1) (until +. 0.5)
  in
  step 40 (Scheduler.now sys.sched +. 0.5)

type restart = {
  load_s : float;
  analyze_s : float;
  recover_s : float;
  complete_s : float;
  total_s : float;
  records_loaded : int;
  in_doubt : int;
  restart_error : string option;
}

let restart sys ~spec ~procs =
  let t0 = now () in
  let records = (Wal.load sys.wal_path).Wal.records in
  let t1 = now () in
  let analyzed = Recovery.analyze ~procs records in
  let t2 = now () in
  let recovered =
    Scheduler.recover
      ~config:{ sys.config with admission_clock = None }
      ~tracer:Obs.Tracer.disabled ~spec ~rms:sys.rms ~procs records
  in
  let t3 = now () in
  (match recovered with Ok t -> Scheduler.run t | Error _ -> ());
  let t4 = now () in
  let in_doubt =
    match analyzed with
    | Ok plan ->
        List.fold_left
          (fun acc (p : Recovery.process_plan) ->
            acc + List.length p.Recovery.in_doubt + List.length p.Recovery.in_doubt_commit)
          0 plan.Recovery.interrupted
    | Error _ -> 0
  in
  let restart_error =
    match (analyzed, recovered) with
    | Error e, _ | _, Error e -> Some e
    | Ok _, Ok _ -> None
  in
  ( {
    load_s = t1 -. t0;
    analyze_s = t2 -. t1;
    recover_s = t3 -. t2;
    complete_s = t4 -. t3;
    total_s = t4 -. t0;
    records_loaded = List.length records;
    in_doubt;
    restart_error;
  },
    Result.to_option recovered )

(* ------------------------------------------------------------------ *)
(* Exact counts: a run is deterministic in its seed, so every round of a
   run must reproduce them, and so must every run of the same seed *)

let count_keys =
  [
    "admissions";
    "admission_delays";
    "dispatched";
    "committed";
    "aborted";
    "retries";
    "twopc_commits";
    "twopc_aborts";
    "latent_patches";
    "latent_rebuilds";
  ]

let counts_of sys =
  let m = Scheduler.metrics sys.sched in
  let wal = Scheduler.wal sys.sched in
  let st = Wal.stats wal in
  let c = Server.counters sys.srv in
  List.map (fun k -> (k, Metrics.count m k)) count_keys
  @ [
      ("wal_records", Wal.size wal);
      ("fsyncs", st.Wal.fsyncs);
      ("max_batch", st.Wal.max_batch);
      ("msgs", Scheduler.msg_deliveries sys.sched);
      ("invocations", List.fold_left (fun a rm -> a + Rm.invocations rm) 0 sys.rms);
      ("offered", c.Server.offered);
      ("admitted", c.Server.admitted + c.Server.degraded);
    ]

(* ------------------------------------------------------------------ *)
(* The correctness gate, checked after timing *)

type tally = {
  mutable offered : int;  (** processes offered over the wire *)
  mutable failed : int;
      (** error reply, rejected or shed, or any final status but committed *)
  mutable terminal : int;  (** offered and ended committed or aborted *)
  mutable problems : string list;
}

(* one decision line per offered pid, one status line per admitted pid,
   and a counters line, for every document *)
let check_replies pids replies tally =
  let problem fmt = Printf.ksprintf (fun m -> tally.problems <- m :: tally.problems) fmt in
  Array.iteri
    (fun i lines ->
      let decisions = Hashtbl.create 8 and statuses = Hashtbl.create 8 in
      let ndec = ref 0 and nstat = ref 0 and counters = ref false in
      List.iter
        (fun l ->
          if String.starts_with ~prefix:"error" l then problem "doc %d: %s" i l
          else if String.starts_with ~prefix:"counters " l then counters := true
          else
            match List.map (fun f -> (f, int_of_string_opt f)) (String.split_on_char ' ' l) with
            | [ ("decision", _); (_, Some pid); (label, _) ] ->
                incr ndec;
                Hashtbl.replace decisions pid label
            | [ ("status", _); (_, Some pid); (st, _) ] ->
                incr nstat;
                Hashtbl.replace statuses pid st
            | _ -> problem "doc %d: unexpected reply line %S" i l)
        lines;
      if not !counters then problem "doc %d: no counters line" i;
      let admitted = ref 0 in
      List.iter
        (fun pid ->
          tally.offered <- tally.offered + 1;
          match Hashtbl.find_opt decisions pid with
          | None ->
              problem "doc %d: no decision for P%d" i pid;
              tally.failed <- tally.failed + 1
          | Some label when String.starts_with ~prefix:"reject" label ->
              tally.failed <- tally.failed + 1
          | Some _ -> (
              incr admitted;
              match Hashtbl.find_opt statuses pid with
              | None ->
                  problem "doc %d: no status for P%d" i pid;
                  tally.failed <- tally.failed + 1
              | Some "committed" -> tally.terminal <- tally.terminal + 1
              | Some "aborted" ->
                  tally.terminal <- tally.terminal + 1;
                  tally.failed <- tally.failed + 1
              | Some _ -> tally.failed <- tally.failed + 1))
        pids.(i);
      if !ndec <> List.length pids.(i) then
        problem "doc %d: %d decision lines for %d processes" i !ndec (List.length pids.(i));
      if !nstat <> !admitted then
        problem "doc %d: %d status lines for %d admitted processes" i !nstat !admitted)
    replies

let check_history tally what h =
  if not (Schedule.legal h) then tally.problems <- (what ^ " history not legal") :: tally.problems;
  if not (Criteria.serializable h) then
    tally.problems <- (what ^ " history not serializable") :: tally.problems

let digest_hex s = Digest.to_hex (Digest.string s)

(* ------------------------------------------------------------------ *)
(* One session: set up, serve one connection, crash, restart, then check.
   A round is the workload's fixed list of sessions; a run repeats
   identical rounds. *)

type session = {
  setup_s : float;
  serve_s : float;  (** wall time of the served phase *)
  lat : float array;  (** per-document round trips (timed sessions) *)
  spans : spans option;  (** traced sessions *)
  gap_s : (string * float) list;  (** traced sessions *)
  admission_s : float;  (** admission wall time (traced sessions) *)
  append_s : float;  (** WAL append replay time (traced sessions) *)
  rs : restart;
  counts : (string * int) list;
  digest : string;
  tally : tally;
}

(* the session's own record stream replayed through [Wal.append] and
   [Wal.sync] on a fresh path under the workload's sync policy, one sync
   per batch of the session's mean fsync batch size *)
let replay_appends w dir records ~fsyncs =
  let path = Filename.concat (fresh_dir dir "replay") "log" in
  let wal = Wal.create ~path ~sync:w.sync () in
  let n = List.length records in
  let batch = if fsyncs > 0 then max 1 ((n + fsyncs - 1) / fsyncs) else max_int in
  let t0 = now () in
  List.iteri
    (fun i r ->
      Wal.append wal r;
      if (i + 1) mod batch = 0 then ignore (Wal.sync wal))
    records;
  ignore (Wal.sync wal);
  let dt = now () -. t0 in
  Wal.close wal;
  rm_rf (Filename.dirname path);
  dt

(* How a session serves its documents: over the socket with tracing off
   (the timed path), or in process with spans around each public call,
   with tracing off (the base of [trace.overhead] and [wire.io_ms]) or on. *)
type mode =
  | Wire
  | Local
  | Traced

(* [full] also checks the histories for legality and serializability; a
   session that skips it must reproduce the digest of one that did *)
let run_session ~dir ~mode ~full w ~seed =
  let traced = mode = Traced in
  Gc.full_major ();
  let t0 = now () in
  let inp = make_inputs w ~seed in
  let wal_path = Filename.concat (fresh_dir dir "wal") "log" in
  let gaps = { tbl = Hashtbl.create 8; last = 0.0; active = false } in
  let tracer =
    if traced then Obs.Tracer.create ~ring_capacity:0 ~sinks:[ gap_sink gaps ] ()
    else Obs.Tracer.disabled
  in
  let sys = make_system inp ~wal_path ~tracer ~traced in
  let t_built = now () in
  let tally = { offered = 0; failed = 0; terminal = 0; problems = [] } in
  let problem m = tally.problems <- m :: tally.problems in
  let lat, replies, serve_s, spans =
    match mode with
    | Local | Traced ->
        let sp, replies = serve_in_process sys inp.texts gaps in
        ([||], replies, sp.wall, Some sp)
    | Wire ->
        let lat, replies, wall, served = serve_socket sys inp.texts in
        (match served with Ok () -> () | Error e -> problem ("handle_connection raised " ^ e));
        (lat, replies, wall, None)
  in
  if w.in_flight > 0 then leave_in_flight sys inp;
  let history = Scheduler.history sys.sched in
  let counts = counts_of sys in
  let decisions = Server.decision_log sys.srv in
  let accounting = Server.accounting_ok sys.srv in
  let finished = Scheduler.finished sys.sched in
  let procs = Server.admitted_procs sys.srv in
  let admission_s = Metrics.total (Scheduler.metrics sys.sched) "admission_time" in
  (* without fsyncs nothing is durable: the crash comes right after the
     OS has written the whole log back, so the image keeps every record *)
  if w.sync = Wal.No_sync then ignore (Wal.sync (Scheduler.wal sys.sched));
  let records = Scheduler.crash sys.sched in
  Wal.crash_image (Scheduler.wal sys.sched);
  Obs.Tracer.close tracer;
  let t_crashed = now () in
  let setup_s = if w.in_flight > 0 then t_crashed -. t0 else t_built -. t0 in
  Gc.full_major ();
  (* the recovered scheduler is checked below and then dropped: a session
     keeps only its figures, so the heap peak is one session's *)
  let rs, recovered = restart sys ~spec:inp.spec ~procs in
  (* --- after timing: the gate --- *)
  check_replies inp.pids replies tally;
  if not accounting then problem "server shed accounting violated";
  if w.in_flight = 0 then begin
    if not finished then problem "served scheduler not finished";
    if full then check_history tally "served" history
  end;
  let recovered =
    match (rs.restart_error, recovered) with
    | Some e, _ ->
        problem ("restart failed: " ^ e);
        ""
    | None, None -> ""
    | None, Some t2 ->
        if not (Scheduler.finished t2) then problem "recovered scheduler not finished";
        List.iter
          (fun p ->
            let pid = Process.pid p in
            if Scheduler.status t2 pid = Schedule.Active then
              problem (Printf.sprintf "P%d admitted before the crash is not terminal" pid))
          procs;
        let h2 = Scheduler.history t2 in
        if full && w.in_flight > 0 then check_history tally "recovered" h2;
        Format.asprintf "%a" Schedule.pp h2
  in
  let digest =
    String.concat "/"
      (List.map digest_hex
         [ Format.asprintf "%a" Schedule.pp history; String.concat "\n" decisions; recovered ])
  in
  let gap_s, append_s =
    if not traced then ([], nan)
    else
        ( List.map (fun k -> (k, Option.value (Hashtbl.find_opt gaps.tbl k) ~default:0.0)) gap_kinds,
          replay_appends w dir records ~fsyncs:(List.assoc "fsyncs" counts) )
  in
  rm_rf (Filename.dirname wal_path);
  { setup_s; serve_s; lat; spans; gap_s; admission_s; append_s; rs; counts; digest; tally }

(* session [j] of a run with seed [seed]: a well-mixed derived seed, so
   that sessions and runs draw unrelated documents *)
let session_seed seed j = Hashtbl.hash (seed, j, "perfbench")

(* ------------------------------------------------------------------ *)
(* Statistics *)

(* nearest-rank quantile *)
let quantile q l =
  match List.sort compare l with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median l = quantile 0.5 l
let sum a = Array.fold_left ( +. ) 0.0 a
let total f sessions = List.fold_left (fun acc s -> acc +. f s) 0.0 sessions

(* a per-round figure [f round], median over rounds *)
let per_round f rounds = median (List.map f rounds)

let mean_slice a lo hi =
  let s = ref 0.0 in
  for i = lo to hi - 1 do
    s := !s +. a.(i)
  done;
  !s /. float_of_int (max 1 (hi - lo))

(* ------------------------------------------------------------------ *)
(* Output *)

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_metrics ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name) (json_num v)
             (json_string unit))
         ms)
  ^ "}"

(* Rounds repeat identical work (their counts and digests are checked),
   so each document and each restart is timed once per round, and a run
   reports the median of each over its rounds.  Pooled raw samples would
   let a slow spell of a shared host, which lasts seconds, move the
   quantiles; the per-document median rides it out.  [typical f rounds]
   takes, for each session of a round, the elementwise median over the
   rounds of [f session]. *)
let typical f rounds =
  List.concat
    (List.mapi
       (fun j s ->
         List.init
           (Array.length (f s))
           (fun i -> median (List.map (fun r -> (f (List.nth r j)).(i)) rounds)))
       (List.hd rounds))

let end_to_end ~timed =
  let lat = typical (fun s -> s.lat) timed in
  let restarts = typical (fun s -> [| s.rs.total_s |]) timed in
  let heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let terminal = total (fun s -> float_of_int s.tally.terminal) (List.hd timed) in
  let sum_l = List.fold_left ( +. ) 0.0 in
  [
    ("setup_s", median (List.map (fun s -> s.setup_s) (List.concat timed)), "s");
    ("procs_per_s", terminal /. sum_l lat, "1/s");
    ("doc_p50_ms", quantile 0.5 lat *. 1e3, "ms");
    ("doc_p90_ms", quantile 0.9 lat *. 1e3, "ms");
    ("peak_heap_mb", float_of_int (heap_words * (Sys.word_size / 8)) /. 1048576.0, "MB");
    ("restart_s", sum_l restarts /. float_of_int (List.length restarts), "s");
  ]

let per_layer ~timed ~local ~traced =
  let sessions = List.concat traced in
  let c k = total (fun s -> float_of_int (List.assoc k s.counts)) (List.hd traced) in
  let sp s = Option.get s.spans in
  let run s = sum (sp s).run in
  let docs s = float_of_int (Array.length (sp s).run) in
  let admitted = c "admitted" in
  let ratio num den = per_round (fun r -> total num r /. total den r) traced in
  let all = timed @ local @ traced in
  let restart_ms f = per_round (fun r -> total f r /. float_of_int (List.length r) *. 1e3) all in
  let server_per_doc s =
    let x = sp s in
    Array.to_list (Array.mapi (fun i p -> p +. x.offer.(i) +. x.run.(i)) x.parse)
  in
  let growth s =
    let a = (sp s).run in
    let n = Array.length a in
    let k = max 1 (n / 10) in
    mean_slice a (n - k) n /. mean_slice a 0 k
  in
  let timed_lat = List.concat_map (fun s -> Array.to_list s.lat) (List.concat timed) in
  [
    ("scheduler.admissions", c "admissions", "count");
    ("scheduler.dispatches", c "dispatched", "count");
    ("scheduler.delays", c "admission_delays", "count");
    ("scheduler.admissions_per_dispatch", c "admissions" /. c "dispatched", "ratio");
    ("scheduler.admission_yield", c "dispatched" /. c "admissions", "ratio");
    ( "scheduler.admission_us",
      ratio (fun s -> s.admission_s) (fun s -> float_of_int (List.assoc "admissions" s.counts)) *. 1e6,
      "us" );
    ("scheduler.admission_share", ratio (fun s -> s.admission_s) run, "share");
    ("scheduler.run_ms", ratio run docs *. 1e3, "ms");
    ( "scheduler.run_growth",
      per_round (fun r -> total growth r /. float_of_int (List.length r)) traced,
      "ratio" );
    ("scheduler.latent_patches", c "latent_patches", "count");
    ("scheduler.latent_rebuilds", c "latent_rebuilds", "count");
    ("wal.records_per_proc", c "wal_records" /. admitted, "ratio");
    ("wal.fsyncs", c "fsyncs", "count");
    ("wal.max_batch", c "max_batch", "count");
    ( "wal.append_us",
      ratio (fun s -> s.append_s) (fun s -> float_of_int (List.assoc "wal_records" s.counts)) *. 1e6,
      "us" );
    ( "lang.parse_us",
      median (List.concat_map (fun s -> Array.to_list (sp s).parse) sessions) *. 1e6,
      "us" );
    ("server.offer_us", median (List.concat_map (fun s -> (sp s).offers) sessions) *. 1e6, "us");
    ("server.status_us", ratio (fun s -> (sp s).status) docs *. 1e6, "us");
    ( "wire.io_ms",
      (median timed_lat -. median (List.concat_map server_per_doc (List.concat local))) *. 1e3,
      "ms" );
    ("twopc.msgs_per_proc", c "msgs" /. admitted, "ratio");
    ("twopc.commits", c "twopc_commits", "count");
    ("subsys.invocations", c "invocations", "count");
    ("subsys.retries", c "retries", "count");
    ("wal.load_ms", restart_ms (fun s -> s.rs.load_s), "ms");
    ("recovery.analyze_ms", restart_ms (fun s -> s.rs.analyze_s), "ms");
    ("scheduler.recover_ms", restart_ms (fun s -> s.rs.recover_s), "ms");
    ("scheduler.complete_ms", restart_ms (fun s -> s.rs.complete_s), "ms");
    ("wal.records_loaded", total (fun s -> float_of_int s.rs.records_loaded) (List.hd traced), "count");
    ("recovery.in_doubt", total (fun s -> float_of_int s.rs.in_doubt) (List.hd traced), "count");
    ( "restart.us_per_record",
      per_round
        (fun r -> total (fun s -> s.rs.total_s) r /. total (fun s -> float_of_int s.rs.records_loaded) r)
        all
      *. 1e6,
      "us" );
  ]
  @ List.map (fun k -> ("run.gap." ^ k, ratio (fun s -> List.assoc k s.gap_s) run, "share")) gap_kinds
  @ [
      ( "trace.coverage",
        ratio
          (fun s ->
            let x = sp s in
            sum x.parse +. sum x.offer +. sum x.run +. x.status)
          (fun s -> (sp s).wall),
        "share" );
      ( "trace.overhead",
        (per_round (total (fun s -> s.serve_s)) traced /. per_round (total (fun s -> s.serve_s)) local)
        -. 1.0,
        "ratio" );
    ]

(* ------------------------------------------------------------------ *)
(* Command line *)

let usage () =
  prerr_endline
    "usage: perfbench --workload serve-contended|serve-stream|restart --seed N \
     --seconds S --trace 0|1 [--size full|tiny] [--dir DIR] [--commit SHA]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let tiny = ref false and dir = ref "_perfbench" and commit = ref "unknown" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--size" :: "tiny" :: rest -> tiny := true; parse rest
    | "--size" :: "full" :: rest -> tiny := false; parse rest
    | "--dir" :: v :: rest -> dir := v; parse rest
    | "--commit" :: v :: rest -> commit := v; parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let w =
    match List.find_opt (fun w -> w.name = !workload) (workloads ~tiny:!tiny) with
    | Some w -> w
    | None -> usage ()
  in
  (* Timed runs do not fsync.  On a shared disk the mean fsync latency
     drifts by a factor of two over minutes while its floor stays put, so
     wall-clock figures that include fsync waits measure the neighbours;
     the traced run keeps the workload's own policy, and its counts and
     gap shares show what the WAL's fsyncs cost. *)
  let w = if !trace = 0 then { w with sync = Wal.No_sync } else w in
  (* the scratch directory is ours alone: created here, removed at exit *)
  if Sys.file_exists !dir then begin
    Printf.eprintf "perfbench: %s already exists\n" !dir;
    exit 2
  end;
  Sys.mkdir !dir 0o755;
  let session ~mode ~full j = run_session ~dir:!dir ~mode ~full w ~seed:(session_seed !seed j) in
  let round ~mode ~full = List.init w.sessions (session ~mode ~full) in
  (* rounds until [budget] seconds are spent, at least [min] of them *)
  let rounds ~mode ~budget ~min =
    let t_end = now () +. budget in
    let rec go k acc =
      if k < min || (now () < t_end && k < 1000) then go (k + 1) (round ~mode ~full:(k = 0) :: acc)
      else List.rev acc
    in
    go 0 []
  in
  let warmup = session ~mode:Wire ~full:true 0 in
  let timed, local, traced =
    if !trace = 0 then (rounds ~mode:Wire ~budget:!seconds ~min:3, [], [])
    else
      let third = !seconds /. 3.0 in
      let timed = rounds ~mode:Wire ~budget:third ~min:2 in
      let local = rounds ~mode:Local ~budget:third ~min:2 in
      (timed, local, rounds ~mode:Traced ~budget:third ~min:2)
  in
  let all = timed @ local @ traced in
  let first = List.hd all in
  let sessions = warmup :: List.concat all in
  let same f =
    f warmup = f (List.hd first)
    && List.for_all (fun r -> List.for_all2 (fun a b -> f a = f b) r first) all
  in
  let problems =
    List.concat_map (fun s -> List.rev s.tally.problems) sessions
    @ (if same (fun s -> s.counts) then [] else [ "exact counts differ between rounds of one seed" ])
    @ if same (fun s -> s.digest) then [] else [ "history digest differs between rounds of one seed" ]
  in
  let metrics = if !trace = 0 then end_to_end ~timed else per_layer ~timed ~local ~traced in
  let problems =
    problems
    @ List.filter_map
        (fun (name, v, _) ->
          if !trace = 0 && not (Float.is_finite v && v > 0.0) then
            Some (Printf.sprintf "metric %s is %g" name v)
          else None)
        metrics
  in
  let docs = w.docs * w.sessions in
  Printf.printf
    "# meta {\"workload\": %s, \"seed\": %d, \"commit\": %s, \"nproc\": %d, \"sessions\": %d, \
     \"docs_per_session\": %d, \"procs_per_doc\": %d, \"in_flight\": %d, \"density\": %g, \
     \"fail_rate\": %g, \"wal_sync\": %s, \"policy\": %s, \"window\": %d, \"order\": %s, \
     \"flush\": %s, \"rounds_timed\": %d, \"rounds_local\": %d, \"rounds_traced\": %d, \
     \"doc_samples\": %d}\n"
    (json_string w.name) !seed (json_string !commit)
    (Domain.recommended_domain_count ()) w.sessions w.docs w.per_doc w.in_flight w.density
    w.fail_rate (json_string (sync_label w.sync))
    (json_string (Server.policy_label Server.default_config.Server.policy))
    Server.default_config.Server.max_live
    (json_string (if Scheduler.default_config.Scheduler.weak_order then "weak" else "strong"))
    (json_string
       "every append is written to the segment file at once; sync-each fsyncs each append, \
        group-W fsyncs once per W-second virtual-time window, no-sync never fsyncs and the \
        log is synced once just before the crash")
    (List.length timed) (List.length local) (List.length traced)
    docs;
  let counts =
    List.map
      (fun (k, _) -> (k, List.fold_left (fun a s -> a + List.assoc k s.counts) 0 first))
      (List.hd first).counts
  in
  Printf.printf "# counts %s\n"
    (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counts));
  Printf.printf "# digest %s\n" (digest_hex (String.concat " " (List.map (fun s -> s.digest) first)));
  List.iter (fun p -> Printf.printf "# FAIL %s\n" p) problems;
  let attempted = List.fold_left (fun a s -> a + s.tally.offered) 0 sessions in
  let failed = List.fold_left (fun a s -> a + s.tally.failed) 0 sessions in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n"
    (problems = []) attempted failed (json_metrics metrics);
  rm_rf !dir;
  if problems <> [] then exit 1
