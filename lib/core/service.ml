(* Request semantics of the locald decision service: the bridge from
   [Proto] messages to the Sweeps workload registry, the certify
   registry and the telemetry surface.

   The centrepiece is the engine cache. An {e engine} is one
   [Sweeps.w_eval] closure — an instance's prepared views, its
   decide-once memo table and, for the exhaustive-decider family, its
   quotient certificate — keyed by (workload, backend config, memo
   mode). Engines persist across requests, so a repeated workload hits
   the warm memo table or is answered from the certificate without
   deciding: the cross-request cache the long-lived daemon exists for.
   Requests run one at a time, which is the sequential-call contract
   [w_eval] closures require. The cache is LRU-bounded ([max_engines]) and every
   engine's memo table is size-bounded ([memo_capacity] through
   [Runner.prepare]), so a daemon fed a stream of distinct configs
   stays at a bounded footprint. Eviction at either level is
   digest-transparent — a rebuilt engine recomputes what the dropped
   one knew.

   Per-request configuration is {e threaded}, never ambient: the
   daemon's startup defaults are captured once at [create], and a
   request's backend/memo/jobs override them for that request only by
   flowing through [w_eval]'s explicit parameters. Nothing here calls
   [Backend.set_default] / [Memo.set_default_mode] — the concurrency
   bug this PR fixes was exactly those process-global mutations leaking
   one request's config into another. *)

open Locald_runtime
module Backend = Locald_local.Backend
module Async_runner = Locald_local.Async_runner
module Json = Telemetry.Json

let c_engine_builds = Telemetry.Counter.make "serve.engine_builds"
let c_engine_evictions = Telemetry.Counter.make "serve.engine_evictions"
let g_engines = Telemetry.Gauge.make "serve.engines"

type engine = {
  e_eval : lo:int -> hi:int -> Shard.chunk_result;
  mutable e_used : int;  (* LRU stamp: the service clock at last use *)
}

type t = {
  sv_backend : Backend.t;  (* startup default for config-less requests *)
  sv_memo : Memo.mode;
  sv_memo_capacity : int;
  sv_max_engines : int;
  sv_engines : (string, engine) Hashtbl.t;
  mutable sv_tick : int;
  mutable sv_jobs : int;   (* last pool width applied *)
}

let default_max_engines = 8
let default_memo_capacity = 1 lsl 16

let create ?(max_engines = default_max_engines)
    ?(memo_capacity = default_memo_capacity) () =
  {
    sv_backend = Backend.default ();
    sv_memo = Memo.default_mode ();
    sv_memo_capacity = memo_capacity;
    sv_max_engines = max 1 max_engines;
    sv_engines = Hashtbl.create 16;
    sv_tick = 0;
    sv_jobs = Pool.default_jobs ();
  }

let env_problems () = Backend.env_problems () @ Memo.env_problems ()

(* ------------------------------------------------------------------ *)
(* Per-request configuration                                           *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

(* Mirrors the CLI's [apply_backend]: an explicit seed or fifo flag
   implies the async backend; naming "sync" alongside them is a
   contradiction and is rejected rather than silently dropped. *)
let resolve_backend t (c : Proto.config) =
  let async () =
    Backend.Async
      {
        Async_runner.sched_seed = Option.value c.c_sched_seed ~default:0;
        fifo = Option.value c.c_fifo ~default:false;
      }
  in
  match c.c_backend with
  | None ->
      if c.c_sched_seed = None && c.c_fifo = None then Ok t.sv_backend
      else Ok (async ())
  | Some "sync" ->
      if c.c_sched_seed <> None || c.c_fifo <> None then
        Error "sched_seed/fifo apply to the async backend only"
      else Ok Backend.Sync
  | Some "async" -> Ok (async ())
  | Some other ->
      Error (Printf.sprintf "unknown backend %S (expected sync | async)" other)

let resolve_memo t (c : Proto.config) =
  match c.c_memo with
  | None -> Ok t.sv_memo
  | Some s -> (
      match Memo.mode_of_string s with
      | Some m -> Ok m
      | None ->
          Error
            (Printf.sprintf "unknown memo mode %S (expected off | exact | order)"
               s))

(* Per-request pool width. Resizing the shared pool is safe between
   requests (the loop executes them sequentially) and digest-neutral
   (every engine entry point is deterministic at any width); skipping
   the no-op case avoids tearing the domain pool down per request. *)
let apply_jobs t (c : Proto.config) =
  match c.c_jobs with
  | None -> Ok ()
  | Some j when j < 1 || j > 64 -> Error "jobs must be within [1, 64]"
  | Some j ->
      if j <> t.sv_jobs then begin
        Pool.set_default_jobs j;
        t.sv_jobs <- j
      end;
      Ok ()

let backend_key = function
  | Backend.Sync -> "sync"
  | Backend.Async { Async_runner.sched_seed; fifo } ->
      Printf.sprintf "async:%d:%b" sched_seed fifo

(* ------------------------------------------------------------------ *)
(* The engine cache                                                    *)
(* ------------------------------------------------------------------ *)

let engine_for t (w : Sweeps.workload) backend memo =
  let key =
    Printf.sprintf "%s#%s#%s" w.Sweeps.w_name (backend_key backend)
      (Memo.mode_to_string memo)
  in
  t.sv_tick <- t.sv_tick + 1;
  match Hashtbl.find_opt t.sv_engines key with
  | Some e ->
      e.e_used <- t.sv_tick;
      e
  | None ->
      if Hashtbl.length t.sv_engines >= t.sv_max_engines then begin
        (* Evict the least-recently-used engine. The fold order over
           the table is irrelevant: the minimum stamp is order-free. *)
        let victim =
          Hashtbl.fold
            (fun k e acc ->
              match acc with
              | Some (_, e') when e'.e_used <= e.e_used -> acc
              | _ -> Some (k, e))
            t.sv_engines None
        in
        match victim with
        | Some (k, _) ->
            Hashtbl.remove t.sv_engines k;
            Telemetry.Counter.incr c_engine_evictions
        | None -> ()
      end;
      let e =
        {
          e_eval =
            w.Sweeps.w_eval ~backend ~memo ~memo_capacity:t.sv_memo_capacity
              ();
          e_used = t.sv_tick;
        }
      in
      Hashtbl.replace t.sv_engines key e;
      Telemetry.Counter.incr c_engine_builds;
      Telemetry.Gauge.set g_engines (float_of_int (Hashtbl.length t.sv_engines));
      e

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)
(* ------------------------------------------------------------------ *)

let digest_of x = Digest.to_hex (Digest.string (Marshal.to_string x []))

let handle_decide t (req : Proto.request) =
  let name = Option.value req.Proto.r_workload ~default:Sweeps.default_name in
  let* w =
    match Sweeps.find name with
    | Some w -> Ok w
    | None ->
        Error
          (Printf.sprintf "unknown workload %S (known: %s)" name
             (String.concat ", " Sweeps.names))
  in
  let* backend = resolve_backend t req.Proto.r_config in
  let* memo = resolve_memo t req.Proto.r_config in
  let* () = apply_jobs t req.Proto.r_config in
  let geom = w.Sweeps.w_geometry () in
  let total = geom.Sweeps.g_total in
  let lo = Option.value req.Proto.r_lo ~default:0 in
  let hi = Option.value req.Proto.r_hi ~default:total in
  let* () =
    if lo < 0 || hi < lo || hi > total then
      Error (Printf.sprintf "range [%d,%d) outside [0,%d]" lo hi total)
    else Ok ()
  in
  let engine = engine_for t w backend memo in
  let r = engine.e_eval ~lo ~hi in
  (* No wall times, no cache statistics in the result: responses must
     be byte-comparable across runs and against one-shot CLI digests.
     Stats live behind the metrics op. *)
  Ok
    (Json.Obj
       [
         ("workload", Json.String w.Sweeps.w_name);
         ("n", Json.Int geom.Sweeps.g_n);
         ("lo", Json.Int lo);
         ("hi", Json.Int hi);
         ("assignments", Json.Int (hi - lo));
         ("correct", Json.Int r.Shard.r_correct);
         ("wrong", Json.Int r.Shard.r_wrong);
         ( "first_failure",
           match r.Shard.r_fail with
           | Some rank -> Json.Int rank
           | None -> Json.Null );
         ( "digest",
           Json.String
             (Shard.result_digest ~correct:r.Shard.r_correct
                ~wrong:r.Shard.r_wrong ~assignments:(hi - lo)) );
       ])

let handle_certify () =
  let rows = Certify.run () in
  let row_json r =
    Json.Obj
      [
        ("name", Json.String r.Certify.c_name);
        ("cell", Json.String r.Certify.c_cell);
        ("claim", Json.String (Certify.claim_name r.Certify.c_claim));
        ( "verdict",
          Json.String
            (Locald_analysis.Analysis.verdict_name
               r.Certify.c_report.Locald_analysis.Analysis.rep_verdict) );
        ("ok", Json.Bool r.Certify.c_ok);
      ]
  in
  let summary r =
    ( r.Certify.c_name,
      Locald_analysis.Analysis.verdict_name
        r.Certify.c_report.Locald_analysis.Analysis.rep_verdict,
      r.Certify.c_ok )
  in
  Ok
    (Json.Obj
       [
         ("rows", Json.List (List.map row_json rows));
         ("all_ok", Json.Bool (Certify.all_ok rows));
         ("digest", Json.String (digest_of (List.map summary rows)));
       ])

(* ------------------------------------------------------------------ *)
(* The dispatcher                                                      *)
(* ------------------------------------------------------------------ *)

let handlers t =
  let on_request json =
    match Proto.request_of_json json with
    | Error msg ->
        Serve.Reply (Proto.error_response ?id:(Proto.request_id json) msg)
    | Ok req -> (
        let id = req.Proto.r_id in
        let op = req.Proto.r_op in
        let reply = function
          | Ok result -> Serve.Reply (Proto.response ~id ~op result)
          | Error msg -> Serve.Reply (Proto.error_response ~id msg)
        in
        match op with
        | Proto.Ping ->
            Serve.Reply
              (Proto.response ~id ~op (Json.Obj [ ("pong", Json.Bool true) ]))
        | Proto.Metrics -> Serve.Reply (Proto.response ~id ~op (Telemetry.metrics_json ()))
        | Proto.Shutdown ->
            Serve.Final
              (Proto.response ~id ~op
                 (Json.Obj [ ("draining", Json.Bool true) ]))
        | Proto.Decide -> (
            match handle_decide t req with
            | r -> reply r
            | exception e ->
                Serve.Reply (Proto.error_response ~id (Printexc.to_string e)))
        | Proto.Certify -> (
            match handle_certify () with
            | r -> reply r
            | exception e ->
                Serve.Reply (Proto.error_response ~id (Printexc.to_string e))))
  in
  {
    Serve.on_request;
    on_busy =
      (fun ~inflight json ->
        Proto.busy_response ?id:(Proto.request_id json) ~inflight ());
    on_malformed =
      (fun msg -> Proto.error_response ("malformed frame: " ^ msg));
  }
