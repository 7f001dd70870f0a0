(* The in-process batch workloads: coverage-scale, certify-scale and
   flood. Each repeats whole passes of one fixed unit of work until the
   run's seconds are spent, checks every pass's output, and in a traced
   run attributes the pass to layers by replaying their public entry
   points. *)

open Locald_runtime
open Locald_graph
open Locald_local
open Locald_core
open Locald_perfbench

type pass = { p_wall : float; p_ops : int; p_ok : bool }

(* A workload: [setup] builds its instances (timed on its own,
   [setups] times); [pass] does one unit of work and returns (ops,
   output ok); [attribute] runs the layer replays of a traced run. *)
type 'i workload = {
  ops_name : string;  (* what one op is, and the input size *)
  jobs : int;  (* worker domains of the pool *)
  setups : int;
      (* enough that the set-ups take a few tenths of a second in all: a
         one-millisecond set-up needs hundreds for a steady median. The
         count is fixed, not timed, so the heap a run's passes start
         from is the same in every run. *)
  setup : unit -> 'i;
  prime : 'i -> unit;  (* lazy values the passes rely on, forced untimed *)
  pass : 'i -> int * bool;
  attribute : 'i -> pass array -> unit;
  layer_counters : passes:int -> unit;  (* per-pass counters of the timed phase *)
}

(* G(M,1) construction times of the set-ups, reported as gmr.build_s. *)
let gmr_times = ref []

let gmr_timed f =
  let r, dt = Timing.time f in
  gmr_times := dt :: !gmr_times;
  r

(* Run [pass] while another pass as long as the last one still fits
   in [seconds] (at least [min_passes] passes). Also returns the peak
   RSS after the first [min_passes] passes: the heap keeps growing over
   later passes, and how many of those a run gets depends on the host's
   speed. *)
let min_passes = 2

let timed_passes ~seconds pass =
  let t0 = Timing.now () in
  let rss = ref 0. in
  let rec go acc last k =
    if k = min_passes then rss := Probes.peak_rss_mb 0;
    if k >= min_passes && Timing.duration_since t0 +. last > seconds then
      (Array.of_list (List.rev acc), !rss)
    else
      let (ops, ok), dt = Timing.time pass in
      go ({ p_wall = dt; p_ops = ops; p_ok = ok } :: acc) dt (k + 1)
  in
  go [] 0. 0

(* One extra pass with telemetry metrics on: the gauges and spans the
   always-on counters do not give. *)
let instrumented pass =
  Telemetry.new_run ();
  Telemetry.set_metrics true;
  let _, ok = pass () in
  Telemetry.set_metrics false;
  (Telemetry.metrics_json (), ok)

let per ~passes x = Stats.share (float_of_int x) (float_of_int passes)

let pool_counters ~passes m =
  Report.set "pool.tasks" (per ~passes (Probes.counter m "pool.tasks"));
  Report.set "pool.steals" (per ~passes (Probes.counter m "pool.steals"))

let memo_counters ~passes =
  let ms = Memo.run_stats () in
  Report.set "memo.hits" (per ~passes ms.Memo.hits);
  Report.set "memo.misses" (per ~passes ms.Memo.misses);
  Report.set "memo.hit_ratio"
    (Stats.share (float_of_int ms.Memo.hits) (float_of_int (ms.Memo.hits + ms.Memo.misses)));
  Report.set "memo.evictions" (per ~passes (Probes.counter (Telemetry.metrics_json ()) "memo.evictions"));
  Report.set "orbit.scanned" (per ~passes (Orbit.scanned ()))

let canon_counters ~passes =
  let cs = Canon.run_stats () in
  Report.set "canon.hits" (per ~passes cs.Canon.hits);
  Report.set "canon.misses" (per ~passes cs.Canon.misses);
  Report.set "canon.exact" (per ~passes cs.Canon.exact);
  Report.set "canon.fallback" (per ~passes cs.Canon.fallback)

let run w ~seconds ~trace =
  Pool.set_default_jobs w.jobs;
  let rec set_up k times =
    let i, dt = Timing.time w.setup in
    if k <= 1 then (i, dt :: times) else set_up (k - 1) (dt :: times)
  in
  let inst, setup_times = set_up w.setups [] in
  w.prime inst;
  let setup = Report.timing "setup_s" ~unit_:"s" (Array.of_list setup_times) in
  Report.set "setup_s" setup.Stats.median;
  if !gmr_times <> [] then Report.set "gmr.build_s" (Stats.median (Array.of_list !gmr_times));
  (* Timed phase: fresh telemetry scope, GC / CPU / arena snapshots. *)
  Telemetry.new_run ();
  let g0 = Probes.gc_now () and cpu0 = Probes.cpu_s () in
  let allocs0 = Arena.scratch_allocs () and reuses0 = Arena.scratch_reuses () in
  let t0 = Timing.now () in
  let passes, rss = timed_passes ~seconds (fun () -> w.pass inst) in
  let wall = Timing.duration_since t0 in
  let g1 = Probes.gc_now () and cpu1 = Probes.cpu_s () in
  let np = Array.length passes in
  let ms = Array.map (fun p -> p.p_wall *. 1000.) passes in
  let lat = Report.timing "pass_ms" ~unit_:"ms" ms in
  let ops = Array.fold_left (fun acc p -> acc + p.p_ops) 0 passes in
  Report.note "ops: %s; %d ops per pass, %d passes in %.3f s at jobs %d" w.ops_name
    passes.(0).p_ops np wall (Pool.default_jobs ());
  (* Ops finished over the whole timed phase: with a handful of
     multi-second passes a run's total is steadier than the median of
     its per-pass rates. *)
  Report.set "ops_per_s" (float_of_int ops /. wall);
  Report.set "latency_p50_ms" lat.Stats.median;
  Report.set_p90 "latency_p90_ms" lat;
  Report.set "alloc_mwords" (Probes.alloc_words g0 g1 /. 1e6 /. float_of_int np);
  Report.set "peak_rss_mb" rss;
  let failed = Array.fold_left (fun acc p -> if p.p_ok then acc else acc + 1) 0 passes in
  let share = Stats.share (float_of_int failed) (float_of_int np) in
  Report.set "ok_share" (1. -. share);
  Report.set "fail_share" share;
  let traced_ok =
    if not trace then true
    else
      let t_attr = Timing.now () in
      Probes.report_gc ~passes:np g0 g1;
      Report.set "pool.cpu_util" ((cpu1 -. cpu0) /. (wall *. float_of_int (Pool.default_jobs ())));
      Report.set "view.scratch_allocs" (float_of_int (Arena.scratch_allocs () - allocs0));
      Report.set "view.scratch_reuses" (float_of_int (Arena.scratch_reuses () - reuses0));
      pool_counters ~passes:np (Telemetry.metrics_json ());
      w.layer_counters ~passes:np;
      let m, ok = instrumented (fun () -> w.pass inst) in
      if not ok then Report.note "the metrics-on pass gave a wrong output";
      Report.set "pool.queue_depth_max" (Probes.gauge m "pool.queue_depth.max");
      Report.set "telemetry.spans_per_request" (float_of_int (Probes.span_count m));
      w.attribute inst passes;
      Report.set "trace.overhead_share" (Timing.duration_since t_attr /. wall);
      ok
  in
  (failed = 0 && traced_ok, np, failed)

(* ------------------------------------------------------------------ *)
(* coverage-scale                                                      *)
(* ------------------------------------------------------------------ *)

(* BENCH_scale's f1-coverage-scale: T_r at arity 2, r 2, f(n) = n + 5,
   radius-3 views. *)
let coverage_params = { Tree_instances.regime = Ids.f_linear_plus 5; arity = 2; r = 2 }
let coverage_t = 3
let coverage_pin = "af7639165cd217ca3c18a84d50d0cd1b"

let coverage =
  {
    ops_name = "T_r nodes covered (arity 2, r 2, f(n)=n+5, t 3)";
    jobs = 2;
    setups = 9;
    setup =
      (fun () ->
        (* What [Tree_instances.big_tree] does on a cache miss; the
           cache itself is filled once, untimed, before the passes. *)
        let p = coverage_params in
        Labelled.map
          (fun l -> Tree_instances.Tree l)
          (Layered_tree.make ~arity:p.Tree_instances.arity ~r:p.Tree_instances.r
             ~depth:(Tree_instances.depth p)));
    prime = (fun _ -> ignore (Tree_instances.big_tree coverage_params));
    pass =
      (fun _ ->
        let c = Tree_deciders.coverage coverage_params ~t:coverage_t in
        ( Bound.tree_size ~arity:2 ~depth:(Tree_instances.depth coverage_params),
          Probes.digest_of (c.Tree_deciders.covered, c.Tree_deciders.total_views, c.Tree_deciders.uncovered_node)
          = coverage_pin ));
    layer_counters =
      (fun ~passes ->
        memo_counters ~passes;
        canon_counters ~passes);
    attribute =
      (fun tr passes ->
        (* Coverage's own first two phases, replayed: extract every
           view of T_r, then canonically key each one. *)
        let n = Labelled.order tr in
        let views, t_extract =
          Timing.time (fun () ->
              Pool.map (fun v -> View.extract tr ~center:v ~radius:coverage_t) (Pool.init_in_order n Fun.id))
        in
        let canon = Canon.create ~equal:( = ) () in
        let _, t_key = Timing.time (fun () -> Pool.map (Canon.key canon) views) in
        Report.set "view.extract_us" (t_extract *. 1e6 /. float_of_int n);
        Report.set "canon.key_us" (t_key *. 1e6 /. float_of_int n);
        let pass_s = Stats.median (Array.map (fun p -> p.p_wall) passes) in
        Report.set "coverage.self_s" (pass_s -. t_extract -. t_key));
  }

(* ------------------------------------------------------------------ *)
(* certify-scale                                                       *)
(* ------------------------------------------------------------------ *)

(* BENCH_scale's certify-gmr-scale: the Theorem 2 LD decider over six
   G(M,1) instances. *)
let certify_machines =
  Locald_turing.Zoo.
    [
      ("two_faced-s3", two_faced ~steps:3 ~real:0 ~fake:1);
      ("two_faced-s4", two_faced ~steps:4 ~real:0 ~fake:1);
      ("two_faced-s5", two_faced ~steps:5 ~real:0 ~fake:1);
      ("walk-s20", walk ~steps:20 ~output:0);
      ("walk-s50", walk ~steps:50 ~output:0);
      ("zigzag-h10", zigzag ~half:10 ~output:0);
    ]

let certify_pin = "03c1795ceaadbafafea72dde44f8116b"

let gmr_build ~cap m =
  match Gmr.build ~config:{ (Gmr.default_config ~r:1) with Gmr.fragment_cap = cap } ~r:1 m with
  | Ok t -> t
  | Error _ -> failwith "perfbench: unbuildable G(M,1)"

let certify_report instances =
  Locald_analysis.Analysis.certify ~budget:50_000 (Gmr_deciders.ld_decider ()) ~instances

let certify_digest (r : Locald_analysis.Analysis.report) =
  let open Locald_analysis.Analysis in
  Probes.digest_of (verdict_name r.rep_verdict, r.rep_views, r.rep_events, r.rep_max_depth)

let certify =
  {
    ops_name = "trace events of the LD decider over six G(M,1) instances (budget 50000)";
    jobs = 2;
    setups = 9;
    setup =
      (fun () ->
        gmr_timed (fun () -> List.map (fun (name, m) -> (name, (gmr_build ~cap:100 m).Gmr.lg)) certify_machines));
    prime = ignore;
    pass =
      (fun instances ->
        let r = certify_report instances in
        (r.Locald_analysis.Analysis.rep_events, certify_digest r = certify_pin));
    layer_counters =
      (fun ~passes ->
        memo_counters ~passes;
        canon_counters ~passes);
    attribute =
      (fun instances _ ->
        let r = certify_report instances in
        Report.set "analysis.views" (float_of_int r.Locald_analysis.Analysis.rep_views);
        Report.set "analysis.distinct_views" (float_of_int r.Locald_analysis.Analysis.rep_distinct_views);
        Report.set "analysis.events" (float_of_int r.Locald_analysis.Analysis.rep_events);
        (* Per view: the extraction with the sequential assignment
           attached, then one monitored decide — the certifier's inner
           steps, replayed sequentially. *)
        let alg = Gmr_deciders.ld_decider () in
        let radius = alg.Algorithm.radius in
        let t_extract = ref 0. and t_trace = ref 0. and count = ref 0 in
        List.iter
          (fun (_, lg) ->
            let n = Labelled.order lg in
            let ids = Array.init n Fun.id in
            for v = 0 to n - 1 do
              let view, dt = Timing.time (fun () -> View.extract ~ids lg ~center:v ~radius) in
              t_extract := !t_extract +. dt;
              let input = Option.value (View.ids view) ~default:[||] in
              let _, dt =
                Timing.time (fun () ->
                    Locald_analysis.Trace.run ~input_ids:(fun a -> a == input) alg.Algorithm.decide view)
              in
              t_trace := !t_trace +. dt;
              incr count
            done)
          instances;
        Report.set "view.extract_us" (!t_extract *. 1e6 /. float_of_int (max 1 !count));
        Report.set "trace.run_us" (!t_trace *. 1e6 /. float_of_int (max 1 !count)));
  }

(* ------------------------------------------------------------------ *)
(* flood                                                               *)
(* ------------------------------------------------------------------ *)

(* The three knowledge-flooding loops on G(two_faced s2, r 1) at
   fragment cap 10: the sync gossip engine, the fault replay (drop 0.2,
   one retry) and async view assembly. The seed draws [flood_inputs]
   identifier assignments and fault plans, and pass [k] runs on input
   [k mod flood_inputs], so a run's figures average over several
   inputs rather than resting on one. The async scheduler keeps the
   scale tier's seed 7, since its seed changes how much queueing the
   assembly does and so the work a pass measures. *)
type flood_input = {
  ids : Ids.t;
  plan : Faults.plan;
  reference : bool array Lazy.t;  (* the sync direct engine's outputs: the oracle *)
}

type flood = {
  lg : Gmr.label Labelled.t;
  inputs : flood_input array;
  mutable next : int;
  sched : Async_runner.config;
  times : (string, float list) Hashtbl.t;  (* engine -> wall per pass *)
}

let flood_inputs = 8

let flood_alg = Gmr_deciders.ld_decider ()

let timed fl name f =
  let r, dt = Timing.time f in
  Hashtbl.replace fl.times name (dt :: Option.value ~default:[] (Hashtbl.find_opt fl.times name));
  r

let flood ~seed =
  {
    ops_name = "node-runs of the gossip, fault and async engines on G(two_faced s2, r 1), cap 10";
    jobs = 1;
    setups = 250;
    setup =
      (fun () ->
        let t = gmr_timed (fun () -> gmr_build ~cap:10 (Locald_turing.Zoo.two_faced ~steps:2 ~real:0 ~fake:1)) in
        let lg = t.Gmr.lg in
        let rng = Random.State.make [| 0xf100d; seed |] in
        let input () =
          let ids = Ids.shuffled rng (Labelled.order lg) in
          {
            ids;
            plan = Faults.make ~seed:(Random.State.bits rng) ~drop:0.2 ~retries:1 ();
            reference = lazy (Runner.run ~backend:Backend.Sync flood_alg lg ~ids);
          }
        in
        {
          lg;
          inputs = Array.init flood_inputs (fun _ -> input ());
          next = 0;
          sched = { Async_runner.sched_seed = 7; fifo = false };
          times = Hashtbl.create 4;
        });
    prime = (fun fl -> Array.iter (fun inp -> ignore (Lazy.force inp.reference)) fl.inputs);
    pass =
      (fun fl ->
        let n = Labelled.order fl.lg in
        let inp = fl.inputs.(fl.next mod flood_inputs) in
        fl.next <- fl.next + 1;
        let gossip = timed fl "gossip" (fun () -> Runner.run_message_passing flood_alg fl.lg ~ids:inp.ids) in
        let outcomes, _ =
          timed fl "fault" (fun () -> Fault_runner.run ~plan:inp.plan flood_alg fl.lg ~ids:inp.ids)
        in
        let prep =
          timed fl "assemble" (fun () -> Runner.prepare ~backend:(Backend.Async fl.sched) flood_alg fl.lg)
        in
        let reference = Lazy.force inp.reference in
        let faulted_ok =
          let ok = ref true in
          Array.iteri
            (fun v -> function
              | Fault_runner.Decided o -> if o <> reference.(v) then ok := false
              | Fault_runner.Unknown _ -> ())
            outcomes;
          !ok
        in
        ( 3 * n,
          gossip = reference && faulted_ok && Runner.run_prepared prep ~ids:inp.ids = reference ));
    layer_counters =
      (fun ~passes ->
        let m = Telemetry.metrics_json () in
        List.iter
          (fun c -> Report.set ("async." ^ c) (per ~passes (Probes.counter m ("async." ^ c))))
          [ "sends"; "deliveries"; "reorders" ]);
    attribute =
      (fun fl _ ->
        let med name =
          Stats.median (Array.of_list (Option.value ~default:[ 0. ] (Hashtbl.find_opt fl.times name)))
        in
        Report.set "runner.gossip_s" (med "gossip");
        Report.set "fault_runner.run_s" (med "fault");
        Report.set "async_runner.assemble_s" (med "assemble");
        (* The async queue peak is a gauge: read from a metrics-on
           assembly. *)
        Telemetry.new_run ();
        Telemetry.set_metrics true;
        ignore (Runner.prepare ~backend:(Backend.Async fl.sched) flood_alg fl.lg);
        Telemetry.set_metrics false;
        Report.set "async.max_queue" (Probes.gauge (Telemetry.metrics_json ()) "async.max_queue"));
  }
