(* serve-mix: a closed loop over two connections against a fresh
   decision daemon.

   The daemon is this executable re-run with [--daemon SOCKET]: it
   calls Service.create / Service.handlers / Serve.run exactly as
   [locald serve] does (metrics on, startup defaults, a pool of
   [jobs] domains), with two outside-in additions. Its
   [on_request] is wrapped to time every decide, and its metrics
   replies carry an extra "bench" object with those handler times, its
   GC counters and its CPU time — so service time, daemon allocation
   and CPU are measured in the process doing the work without any span
   inside the program. *)

open Locald_perfbench

open Locald_runtime
module Json = Telemetry.Json
module Sweeps = Locald_core.Sweeps
module Service = Locald_core.Service
module Backend = Locald_local.Backend

let connections = 2

(* Worker domains of the daemon's pool. *)
let jobs = 2

(* Daemon start-ups timed per run; the median is setup_s. *)
let setups = 9

(* Committed full-range digests: BENCH_quick's exhaustive-decider@j1,
   the a1 merge digest of the shard smoke check, and the two
   test_shard pins. *)
let pins =
  [
    ("exhaustive-decider", "d597685e1567bb9b95cfe6a1bf9f1209");
    ("exhaustive-decider-a1", "9c0c05ab4a1ad830a0b73b6c0c8b4d5f");
    ("corollary1-curve", "b53164b966c5906154c84dd5233364b1");
    ("certify-gmr", "eae2a273f859df2a33e8d80eefd3d806");
  ]

(* ------------------------------------------------------------------ *)
(* The daemon                                                          *)
(* ------------------------------------------------------------------ *)

let daemon socket =
  (match Service.env_problems () with
  | [] -> ()
  | problems ->
      List.iter (fun p -> prerr_endline ("perfbench daemon: " ^ p)) problems;
      exit 124);
  Telemetry.set_metrics true;
  Pool.set_default_jobs jobs;
  let drain = Atomic.make false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Atomic.set drain true));
  let base = Service.handlers (Service.create ()) in
  (* The loop runs handlers sequentially on one thread, so a plain
     list is safe. *)
  let handled = ref [] in
  let extra () =
    Json.Obj
      [
        ("gc", Probes.gc_to_json (Probes.gc_now ()));
        ("cpu_s", Json.Float (Probes.cpu_s ()));
        ("jobs", Json.Int (Pool.default_jobs ()));
        ( "handled",
          Json.List (List.rev_map (fun (id, dt) -> Json.List [ Json.Int id; Json.Float dt ]) !handled) );
      ]
  in
  let with_extra = function
    | Serve.Reply (Json.Obj fields) ->
        Serve.Reply
          (Json.Obj
             (List.map
                (function
                  | "result", Json.Obj r -> ("result", Json.Obj (r @ [ ("bench", extra ()) ]))
                  | kv -> kv)
                fields))
    | reply -> reply
  in
  let on_request json =
    let t0 = Timing.now () in
    let reply = base.Serve.on_request json in
    let dt = Timing.duration_since t0 in
    match Json.member "op" json with
    | Some (Json.String "decide") ->
        Option.iter (fun id -> handled := (id, dt) :: !handled) (Proto.request_id json);
        reply
    | Some (Json.String "metrics") -> with_extra reply
    | _ -> reply
  in
  let (_ : Serve.stats) =
    Serve.run ~drain ~listeners:[ Serve.listener_unix socket ]
      ~handlers:{ base with Serve.on_request } ()
  in
  (try Sys.remove socket with Sys_error _ -> ());
  exit 0

(* ------------------------------------------------------------------ *)
(* Daemon lifecycle, from the client side                              *)
(* ------------------------------------------------------------------ *)

exception Setup_failed of string

let setup_fail fmt = Printf.ksprintf (fun s -> raise (Setup_failed s)) fmt

(* Daemon sockets live here, relative to the checkout root: a Unix
   socket path must stay short. *)
let run_dir = ".perfbench_run"

(* Children still running; killed and reaped at exit whatever
   happens. *)
let live : int list ref = ref []

let reap pid =
  let deadline = Timing.now () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Timing.now () > deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid)
        end
        else begin
          Unix.sleepf 0.005;
          wait ()
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  live := List.filter (( <> ) pid) !live

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live;
      try Unix.rmdir run_dir with Unix.Unix_error _ -> ())

let socket_path k = Filename.concat run_dir (Printf.sprintf "d%d-%d.sock" (Unix.getpid ()) k)

let spawn socket =
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  (* The daemon runs on its startup defaults, whatever LOCALD_*
     settings the caller's environment carries. *)
  let env =
    Array.of_list
      (List.filter
         (fun kv -> not (String.starts_with ~prefix:"LOCALD_" kv))
         (Array.to_list (Unix.environment ())))
  in
  let pid =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name; "--daemon"; socket |]
      env devnull devnull Unix.stderr
  in
  Unix.close devnull;
  live := pid :: !live;
  pid

let rec connect socket ~deadline =
  match Proto.connect_unix socket with
  | fd -> fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      if Timing.now () > deadline then setup_fail "daemon did not listen on %s" socket;
      Unix.sleepf 0.002;
      connect socket ~deadline

let call fd json =
  match
    Proto.write_frame fd json;
    Proto.read_frame fd
  with
  | reply -> reply
  | exception (Unix.Unix_error _ | Proto.Frame_error _ | Json.Parse_error _) -> None

let ok_result fd req =
  match call fd (Proto.request_to_json req) with
  | None -> setup_fail "daemon closed the connection"
  | Some json -> (
      let v = Proto.response_view json in
      match v.Proto.v_result with
      | Some r when v.Proto.v_ok -> r
      | _ -> setup_fail "daemon answered %s" (Json.to_string json))

type daemon = { pid : int; socket : string; ctl : Unix.file_descr }

(* Set-up: spawn -> first answered ping -> one warm-up decide per
   distinct (workload, config) engine, each a one-rank range (builds
   the engine and its instance without sweeping it). *)
let start k =
  let socket = socket_path k in
  let pid = spawn socket in
  let ctl = connect socket ~deadline:(Timing.now () +. 60.) in
  ignore (ok_result ctl (Proto.request ~id:0 Proto.Ping));
  List.iter
    (fun (workload, config) ->
      ignore (ok_result ctl (Proto.request ~workload ~lo:0 ~hi:1 ~config ~id:0 Proto.Decide)))
    Mix.engines;
  { pid; socket; ctl }

let stop d =
  ignore (call d.ctl (Proto.request_to_json (Proto.request ~id:0 Proto.Shutdown)));
  (try Unix.close d.ctl with Unix.Unix_error _ -> ());
  reap d.pid;
  try Sys.remove d.socket with Sys_error _ -> ()

let metrics d = ok_result d.ctl (Proto.request ~id:0 Proto.Metrics)

let bench_of m = Probes.section "bench" m

(* ------------------------------------------------------------------ *)
(* The closed loop                                                     *)
(* ------------------------------------------------------------------ *)

type record = {
  r_index : int;  (* position in the request list *)
  r_latency : float;
  r_reply : Json.t option;
}

(* The loop goes in steps: each step sends the next request of the
   list on every connection, then waits for every reply before the next
   step. The daemon executes the step's requests one after the other
   and flushes a reply only after the batch it reads next, so each
   request of a step waits for the others and every latency is the
   sum of the step's handler times, whatever the order in which the
   frames arrive. With independently looping connections a request
   would instead wait for whichever neighbour in the list the two
   connections had fallen into step with, which changes from run to
   run. A reply that does not come within [reply_timeout] seconds
   counts as a closed connection, and a closed connection ends the
   loop. *)
let reply_timeout = 60.

let load conns reqs ~seconds =
  let width = Array.length conns in
  let t_start = Timing.now () in
  let deadline = t_start +. seconds in
  let records = ref [] in
  let record i t0 reply =
    records := { r_index = i; r_latency = Timing.duration_since t0; r_reply = reply } :: !records
  in
  let rec step i =
    if Timing.now () < deadline && i + width <= Array.length reqs then begin
      let sent =
        List.init width (fun c ->
            let t0 = Timing.now () in
            match Proto.write_frame conns.(c) (Proto.request_to_json reqs.(i + c).Mix.q_req) with
            | () -> Some (c, t0)
            | exception Unix.Unix_error _ ->
                record (i + c) t0 None;
                None)
        |> List.filter_map Fun.id
      in
      let ok = ref (List.length sent = width) in
      let rec collect pending =
        if pending <> [] then begin
          let ready =
            match Unix.select (List.map (fun (c, _) -> conns.(c)) pending) [] [] reply_timeout with
            | [], _, _ ->
                List.iter (fun (c, t0) -> record (i + c) t0 None) pending;
                ok := false;
                []
            | r, _, _ -> List.filter (fun (c, _) -> List.mem conns.(c) r) pending
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
          in
          List.iter
            (fun (c, t0) ->
              let reply =
                try Proto.read_frame conns.(c)
                with Unix.Unix_error _ | Proto.Frame_error _ | Json.Parse_error _ -> None
              in
              record (i + c) t0 reply;
              if reply = None then ok := false)
            ready;
          if !ok then collect (List.filter (fun p -> not (List.memq p ready)) pending)
        end
      in
      collect sent;
      if !ok then step (i + width)
    end
  in
  step 0;
  let wall = Timing.duration_since t_start in
  let records = List.sort (fun a b -> compare a.r_index b.r_index) !records in
  (Array.of_list records, wall)

(* ------------------------------------------------------------------ *)
(* In-process replay: the oracle for partial ranges                    *)
(* ------------------------------------------------------------------ *)

let config_args (c : Proto.config) =
  let backend =
    match c.Proto.c_backend with
    | Some "async" ->
        Some
          (Backend.Async
             {
               Locald_local.Async_runner.sched_seed = Option.value c.Proto.c_sched_seed ~default:0;
               fifo = Option.value c.Proto.c_fifo ~default:false;
             })
    | _ -> None
  in
  let memo = Option.bind c.Proto.c_memo Memo.mode_of_string in
  (backend, memo)

let find_workload name =
  match Sweeps.find name with Some w -> w | None -> invalid_arg ("unknown workload " ^ name)

(* One in-process engine per (workload, config), as the daemon keeps. *)
let oracle () =
  let engines = Hashtbl.create 8 in
  fun (k : Mix.kind) ->
    let key = (k.Mix.k_workload, k.Mix.k_config) in
    match Hashtbl.find_opt engines key with
    | Some e -> e
    | None ->
        let backend, memo = config_args k.Mix.k_config in
        let e =
          (find_workload k.Mix.k_workload).Sweeps.w_eval ?backend ?memo
            ~memo_capacity:Service.default_memo_capacity ()
        in
        Hashtbl.replace engines key e;
        e

let digest_of_chunk ~lo ~hi (r : Shard.chunk_result) =
  Shard.result_digest ~correct:r.Shard.r_correct ~wrong:r.Shard.r_wrong ~assignments:(hi - lo)

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

let total_of name = ((find_workload name).Sweeps.w_geometry ()).Sweeps.g_total

let run ~seed ~seconds ~trace =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let reqs = Array.of_list (Mix.generate ~seed ~total_of ~blocks:200) in
  Report.note "serve-mix: %d-request blocks over %d engines, closed loop on %d connections"
    Mix.block_size (List.length Mix.engines) connections;
  (* Set-up [setups] times (spawn, ping, warm every engine); the
     last daemon serves the timed phase. *)
  let setup_times = ref [] in
  let d =
    let rec go k =
      let d, dt = Timing.time (fun () -> start k) in
      setup_times := dt :: !setup_times;
      if k < setups then begin
        stop d;
        go (k + 1)
      end
      else d
    in
    go 1
  in
  let setup = Report.timing "setup_s" ~unit_:"s" (Array.of_list !setup_times) in
  Report.set "setup_s" setup.Stats.median;
  let conns = [| d.ctl; connect d.socket ~deadline:(Timing.now () +. 10.) |] in
  let m0 = metrics d in
  let records, wall = load conns reqs ~seconds in
  (* A daemon that died under load answers no metrics: its deltas read
     0 and the run is not correct. *)
  let m1, alive = try (metrics d, true) with Setup_failed _ -> (m0, false) in
  let rss = Probes.peak_rss_mb d.pid in
  Unix.close conns.(1);
  stop d;
  let n = Array.length records in
  let lat_ms = Array.map (fun r -> r.r_latency *. 1000.) records in
  (* Every latency is the sum of its step's handler times, and the
     steps' composition repeats every [cycle] requests (whole blocks
     cut into whole steps). The percentiles are taken over whole
     cycles only: a run's trailing partial cycle would add a
     run-length-dependent share of some steps and move the median
     between them. *)
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let cycle = Mix.block_size * connections / gcd Mix.block_size connections in
  let whole = n / cycle * cycle in
  let cycle_lat_ms = if whole = 0 then lat_ms else Array.sub lat_ms 0 whole in
  let lat = Report.timing "latency_ms" ~unit_:"ms" cycle_lat_ms in
  Report.note "latency over %d whole %d-request cycles; deciles (ms): %s" (whole / cycle) cycle
    (String.concat " "
       (List.init 10 (fun i ->
            Printf.sprintf "%.0f" (Stats.percentile (float_of_int (i + 1) /. 10.) cycle_lat_ms))));
  Report.note "ops: %d requests in %.3f s (decide requests over the Sweeps registry)" n wall;
  Report.set "ops_per_s" (float_of_int n /. wall);
  Report.set "latency_p50_ms" lat.Stats.median;
  Report.set_p90 "latency_p90_ms" lat;
  Report.set "peak_rss_mb" rss;
  let b0 = bench_of m0 and b1 = bench_of m1 in
  let g0 = Probes.gc_of_json (Probes.section "gc" b0) and g1 = Probes.gc_of_json (Probes.section "gc" b1) in
  Report.set "alloc_mwords" (Probes.alloc_words g0 g1 /. 1e6 /. float_of_int (max 1 n));
  (* Handler time per decide, from the daemon: how the block's
     service time splits between full and partial ranges. *)
  let handled_list =
    match Json.member "handled" b1 with
    | Some (Json.List hs) ->
        List.filter_map
          (function Json.List [ Json.Int id; t ] -> Some (id, Probes.num (Some t)) | _ -> None)
          hs
    | _ -> []
  in
  let handled = Hashtbl.create 256 in
  List.iter (fun (id, t) -> Hashtbl.replace handled id t) handled_list;
  let handle_ms =
    Array.map
      (fun r ->
        let id = reqs.(r.r_index).Mix.q_req.Proto.r_id in
        1000. *. Option.value ~default:0. (Hashtbl.find_opt handled id))
      records
  in
  let kind_of i = reqs.(records.(i).r_index).Mix.q_kind in
  let handled_by pick = List.filteri (fun i _ -> pick (kind_of i)) (Array.to_list handle_ms) in
  let share pick =
    let sum xs = List.fold_left ( +. ) 0. xs in
    100. *. Stats.share (sum (handled_by pick)) (sum (Array.to_list handle_ms))
  in
  Report.note "daemon handler ms by kind (median): %s"
    (String.concat " "
       (List.map
          (fun (k : Mix.kind) ->
            let xs = Array.of_list (handled_by (( = ) k)) in
            Printf.sprintf "%s=%.1f" k.Mix.k_label (if xs = [||] then 0. else Stats.median xs))
          Mix.kinds));
  Report.note "daemon handler time: %.0f%% in full exhaustive-decider ranges, %.0f%% in all full ranges"
    (share (fun k -> k.Mix.k_width = None && k.Mix.k_workload = "exhaustive-decider"))
    (share (fun k -> k.Mix.k_width = None));
  (* Correctness: full ranges against the committed pins, partial
     ranges against an in-process replay of the same range. Every
     replay engine is itself checked against its pin over the full
     range. *)
  let engine_for = oracle () in
  let pins_ok =
    List.for_all
      (fun (k : Mix.kind) ->
        match List.assoc_opt k.Mix.k_workload pins with
        | Some pin when k.Mix.k_width <> None ->
            let hi = total_of k.Mix.k_workload in
            let got = digest_of_chunk ~lo:0 ~hi ((engine_for k) ~lo:0 ~hi) in
            if got <> pin then Report.note "replay of %s [0,%d) gave %s, pin %s" k.Mix.k_workload hi got pin;
            got = pin
        | _ -> true)
      Mix.kinds
  in
  let expected = Hashtbl.create 64 in
  let expect (q : Mix.request) =
    let k = q.Mix.q_kind in
    if k.Mix.k_width = None then List.assoc k.Mix.k_workload pins
    else
      let key = (k.Mix.k_label, q.Mix.q_lo) in
      match Hashtbl.find_opt expected key with
      | Some d -> d
      | None ->
          let d = digest_of_chunk ~lo:q.Mix.q_lo ~hi:q.Mix.q_hi ((engine_for k) ~lo:q.Mix.q_lo ~hi:q.Mix.q_hi) in
          Hashtbl.replace expected key d;
          d
  in
  let verdicts =
    Array.to_list
      (Array.map (fun r -> Tally.verdict ~expected:(expect reqs.(r.r_index)) (Tally.digest_of_reply r.r_reply)) records)
  in
  let tally = Tally.count verdicts in
  List.iter (fun (reason, c) -> Report.note "failed ops: %d %s" c reason) tally.Tally.reasons;
  Report.set "ok_share" (1. -. Tally.fail_share tally);
  Report.set "fail_share" (Tally.fail_share tally);
  if trace then begin
    let t_attr = Timing.now () in
    let per x = Stats.share (float_of_int x) (float_of_int (max 1 n)) in
    let delta name = Probes.counter m1 name - Probes.counter m0 name in
    (* Proto: frame sizes and a replayed codec round trip per request
       (encode request, decode it, encode reply, decode it). *)
    let frame_len j = float_of_int (Bytes.length (Proto.encode_frame j)) in
    let replies = Array.map (fun r -> Option.value r.r_reply ~default:Json.Null) records in
    let req_json = Array.map (fun r -> Proto.request_to_json reqs.(r.r_index).Mix.q_req) records in
    Report.set "proto.req_bytes" (Stats.mean (Array.map frame_len req_json));
    Report.set "proto.resp_bytes" (Stats.mean (Array.map frame_len replies));
    let decode b =
      let dec = Proto.decoder () in
      Proto.feed dec b 0 (Bytes.length b);
      match Proto.next dec with Some (Proto.Frame j) -> j | _ -> Json.Null
    in
    let codec i =
      let reps = 20 in
      let (), dt =
        Timing.time (fun () ->
            for _ = 1 to reps do
              let q = decode (Proto.encode_frame req_json.(i)) in
              ignore (Proto.request_of_json q);
              ignore (Proto.response_view (decode (Proto.encode_frame replies.(i))))
            done)
      in
      dt *. 1e6 /. float_of_int reps
    in
    Report.set "proto.codec_us" (Report.timing "proto.codec_us" ~unit_:"us" (Array.init n codec)).Stats.median;
    (* Serve and Service: handler time per request, and the wait the
       loop imposed on top of it. *)
    Report.set "service.handle_ms" (Report.timing "service.handle_ms" ~unit_:"ms" handle_ms).Stats.median;
    Report.set "serve.queue_wait_ms"
      (Report.timing "serve.queue_wait_ms" ~unit_:"ms" (Array.mapi (fun i l -> l -. handle_ms.(i)) lat_ms)).Stats.median;
    Report.set "serve.busy" (float_of_int (delta "serve.busy"));
    Report.set "serve.malformed" (float_of_int (delta "serve.malformed"));
    let builds = Probes.counter m1 "serve.engine_builds" in
    (* Every decide the daemon served, warm-ups included. *)
    let decides = List.length handled_list in
    Report.set "service.engine_builds" (float_of_int builds);
    Report.set "service.engine_evictions" (float_of_int (Probes.counter m1 "serve.engine_evictions"));
    Report.set "service.engine_hit_ratio" (1. -. Stats.share (float_of_int builds) (float_of_int decides));
    (* Memo / Orbit / Pool / GC inside the daemon over the timed
       phase. *)
    let hits = delta "memo.hits" and misses = delta "memo.misses" in
    Report.set "memo.hits" (per hits);
    Report.set "memo.misses" (per misses);
    Report.set "memo.evictions" (per (delta "memo.evictions"));
    Report.set "memo.hit_ratio" (Stats.share (float_of_int hits) (float_of_int (hits + misses)));
    Report.set "orbit.scanned" (per (delta "orbit.scanned"));
    List.iter (fun c -> Report.set ("canon." ^ c) (per (delta ("canon." ^ c)))) [ "hits"; "misses"; "exact"; "fallback" ];
    Report.set "view.scratch_allocs" (Probes.gauge m1 "view.scratch_allocs");
    Report.set "view.scratch_reuses" (Probes.gauge m1 "view.scratch_reuses");
    Report.set "pool.tasks" (per (delta "pool.tasks"));
    Report.set "pool.steals" (per (delta "pool.steals"));
    Report.set "pool.queue_depth_max" (Probes.gauge m1 "pool.queue_depth.max");
    let cpu = Probes.num (Json.member "cpu_s" b1) -. Probes.num (Json.member "cpu_s" b0) in
    Report.set "pool.cpu_util" (cpu /. (wall *. Probes.num (Json.member "jobs" b1)));
    Probes.report_gc ~passes:n g0 g1;
    Report.set "telemetry.spans_per_request" (per (Probes.span_count m1 - Probes.span_count m0));
    (* Sweeps / Decider: every request replayed in-process through the
       same engine kind; decides counted by the runner. *)
    Telemetry.new_run ();
    let assignments = ref 0 in
    let range_ms =
      Array.map
        (fun r ->
          let q = reqs.(r.r_index) in
          assignments := !assignments + (q.Mix.q_hi - q.Mix.q_lo);
          let _, dt = Timing.time (fun () -> (engine_for q.Mix.q_kind) ~lo:q.Mix.q_lo ~hi:q.Mix.q_hi) in
          dt *. 1000.)
        records
    in
    Report.set "decider.range_ms" (Report.timing "decider.range_ms" ~unit_:"ms" range_ms).Stats.median;
    Report.set "decider.decides_per_assignment"
      (Stats.share (float_of_int (Probes.counter (Telemetry.metrics_json ()) "runner.decides")) (float_of_int !assignments));
    Report.set "trace.overhead_share" (Timing.duration_since t_attr /. wall)
  end;
  (alive && pins_ok && tally.Tally.failed = 0, tally.Tally.attempted, tally.Tally.failed)
