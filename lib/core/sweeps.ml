(* Shardable exhaustive workloads: name -> (instance, decider,
   expectation, rank geometry), bridging the decision layer's
   range-restricted evaluator to the runtime's shard/checkpoint
   machinery.

   The contract a workload must honour: its rank space is the
   lexicographic injection order, its eval is a pure function of the
   rank range (so chunks recompute identically on retry/resume), and
   tiling [0, total) over eval reproduces exactly the one-range
   answer [eval ~lo:0 ~hi:total]. *)

open Locald_graph
open Locald_local
open Locald_runtime
open Locald_decision

type geometry = { g_n : int; g_bound : int; g_total : int }

type workload = {
  w_name : string;
  w_description : string;
  w_expected : bool;
  w_chunk : int;
  w_geometry : unit -> geometry;
  w_eval :
    ?backend:Backend.t ->
    ?memo:Memo.mode ->
    ?memo_capacity:int ->
    unit ->
    lo:int -> hi:int -> Shard.chunk_result;
}

let regime = Ids.f_linear_plus 1

(* A tree-instance workload: [p_decider params] quantified over every
   injective assignment of the instance's nodes into [0 .. n-1]. The
   instance is built lazily (the registry itself must stay cheap to
   construct) and shared between geometry and eval. *)
let tree_workload ?backend ~name ~description ~arity ~r ~apex ~expected ~chunk
    () =
  let params = { Tree_instances.regime; arity; r } in
  let lg = lazy (Tree_instances.small_instance params ~apex) in
  let alg = Tree_deciders.p_decider params in
  let geometry () =
    let lg = Lazy.force lg in
    let n = Labelled.order lg in
    { g_n = n; g_bound = n; g_total = Orbit.perm ~bound:n ~k:n }
  in
  (* Per-request configuration: an explicit [?backend] / [?memo]
     overrides the workload's construction-time backend and then the
     ambient session defaults — the serve daemon always passes them, so
     its requests never read (let alone mutate) the process-global
     defaults. The CLI paths pass nothing and behave as before. *)
  (* One exhaustive engine per closure: its quotient certificate, once
     scanned, answers every later range of this closure by arithmetic. *)
  let eval ?backend:req_backend ?memo ?memo_capacity () =
    let lg = Lazy.force lg in
    let backend =
      match req_backend with Some _ -> req_backend | None -> backend
    in
    let engine =
      Decider.prepare_exhaustive ?backend ?memo ?memo_capacity
        ~bound:(Labelled.order lg) alg lg
    in
    fun ~lo ~hi ->
      let rv = Decider.evaluate_range engine ~expected ~lo ~hi in
      {
        Shard.r_correct = rv.Decider.rv_correct;
        r_wrong = rv.Decider.rv_wrong;
        r_fail = Option.map (fun (rank, _, _) -> rank) rv.Decider.rv_failure;
      }
  in
  {
    w_name = name;
    w_description = description;
    w_expected = expected;
    w_chunk = chunk;
    w_geometry = geometry;
    w_eval = eval;
  }

(* A Monte-Carlo curve workload: ranks are coin seeds, not id
   assignments. Rank [k] runs the Corollary 1 randomised decider with
   the seeded stream [Random.State.make [| k |]] on a fixed instance;
   correct means the verdict matched the instance's membership. On a
   no-instance the wrong count over [0 .. total) is the decider's
   (deterministic) empirical one-sided error, and the first
   wrongly-accepting seed is the workload's first-failure rank — so
   merge/resume consistency is exercised on a workload whose failures
   are real, not seeded corruption. *)
(* Same fragment cap as the bench's G(M,1) instance: keeps the
   construction a few hundred nodes, so the full-range runs the
   digest-pin tests perform stay fast. *)
let gmr_config = { (Gmr.default_config ~r:1) with Gmr.fragment_cap = 100 }

let corollary1_workload ~name ~description ~machine ~expected ~total ~chunk ()
    =
  let built =
    lazy
      (match Gmr.build ~config:gmr_config ~r:1 machine with
      | Ok t -> t
      | Error _ ->
          invalid_arg ("sweeps: unbuildable G(M,1) for workload " ^ name))
  in
  let geometry () =
    let t = Lazy.force built in
    (* The "bound" of a seed-ranked workload is its seed space. *)
    { g_n = Gmr.order t; g_bound = total; g_total = total }
  in
  let verdict_at fast k =
    Verdict.accepts (Gmr_deciders.Fast.corollary1 fast (Random.State.make [| k |]))
  in
  (* Seed-ranked: there is no backend or memo axis (the randomised
     decider neither extracts runner views nor memoises), so the
     per-request configuration is accepted and inert — the same
     workload name answers identically whatever config a serve request
     attaches. *)
  let eval ?backend:_ ?memo:_ ?memo_capacity:_ () =
    let t = Lazy.force built in
    let fast = Gmr_deciders.Fast.prepare t.Gmr.lg in
    fun ~lo ~hi ->
      let correct = ref 0 and wrong = ref 0 and fail = ref None in
      for k = lo to hi - 1 do
        if verdict_at fast k = expected then incr correct
        else begin
          incr wrong;
          if !fail = None then fail := Some k
        end
      done;
      { Shard.r_correct = !correct; r_wrong = !wrong; r_fail = !fail }
  in
  {
    w_name = name;
    w_description = description;
    w_expected = expected;
    w_chunk = chunk;
    w_geometry = geometry;
    w_eval = eval;
  }

(* A provenance-certification sweep: ranks are the nodes of a
   yes-instance G(M,1), and rank [v] traces the Theorem 2 LD decider
   on node [v]'s view under the access monitor (sequential assignment
   [0 .. n-1], as in {!Locald_analysis.certify}). Correct means the
   node accepted {e and} the trace witnessed an input-identifier read
   — the decider's declared Id-dependence, certified node by node. *)
let certify_gmr_workload ~name ~description ~machine ~chunk () =
  let built =
    lazy
      (match Gmr.build ~config:gmr_config ~r:1 machine with
      | Ok t -> t
      | Error _ ->
          invalid_arg ("sweeps: unbuildable G(M,1) for workload " ^ name))
  in
  let geometry () =
    let t = Lazy.force built in
    let n = Gmr.order t in
    { g_n = n; g_bound = n; g_total = n }
  in
  let node_ok lg ids ~radius decide v =
    let view = View.extract ~ids lg ~center:v ~radius in
    let input = match View.ids view with Some a -> a | None -> [||] in
    let out, tr =
      Locald_analysis.Trace.run ~input_ids:(fun a -> a == input) decide view
    in
    out && Locald_analysis.Trace.reads_input_ids tr
  in
  (* Node-ranked provenance traces under the access monitor: direct
     [View.extract], no backend or memo axis — per-request
     configuration is accepted and inert, as for the curve workload. *)
  let eval ?backend:_ ?memo:_ ?memo_capacity:_ () =
    let t = Lazy.force built in
    let lg = t.Gmr.lg in
    let n = Gmr.order t in
    let ids = Array.init n (fun i -> i) in
    let alg = Gmr_deciders.ld_decider () in
    fun ~lo ~hi ->
      let correct = ref 0 and wrong = ref 0 and fail = ref None in
      for v = lo to hi - 1 do
        if node_ok lg ids ~radius:alg.Algorithm.radius alg.Algorithm.decide v
        then incr correct
        else begin
          incr wrong;
          if !fail = None then fail := Some v
        end
      done;
      { Shard.r_correct = !correct; r_wrong = !wrong; r_fail = !fail }
  in
  {
    w_name = name;
    w_description = description;
    w_expected = true;
    w_chunk = chunk;
    w_geometry = geometry;
    w_eval = eval;
  }

let all =
  [
    (* The bench workload of the same name: H+ (arity 2, r = 2, apex
       (0,1)) under the P decider, expected accepted — 8 nodes,
       40320 assignments. Its merged digest pins against
       BENCH_quick.json's exhaustive-decider entry. *)
    tree_workload ~name:"exhaustive-decider"
      ~description:
        "P decider over every assignment of H+ (arity 2, r = 2) — the \
         BENCH_quick workload"
      ~arity:2 ~r:2 ~apex:(0, 1) ~expected:true ~chunk:512 ();
    (* A second size for quick sharded smoke runs: the linear (arity
       1) cone, small enough that every shard finishes in
       milliseconds. *)
    tree_workload ~name:"exhaustive-decider-a1"
      ~description:
        "P decider over every assignment of the arity-1, r = 4 cone"
      ~arity:1 ~r:4 ~apex:(0, 1) ~expected:true ~chunk:64 ();
    (* The same instance and rank space as exhaustive-decider, but the
       views come from the asynchronous message-passing backend — the
       merged digest must still equal the committed BENCH_quick pin
       (the backends are byte-identical), which the sweep smoke in CI
       asserts. *)
    tree_workload ~backend:(Backend.Async Async_runner.default_config)
      ~name:"async-exhaustive"
      ~description:
        "exhaustive-decider with views assembled by the async \
         message-passing backend — pinned to the same digest"
      ~arity:2 ~r:2 ~apex:(0, 1) ~expected:true ~chunk:512 ();
    (* ROADMAP item 4 remainder: sweeps beyond exhaustive-decider. The
       Corollary 1 curve shards the seed space of the randomised
       decider on a no-instance (wrong = its one-sided error); the
       certify sweep shards per-node provenance certification of the
       Theorem 2 decider on a yes-instance. Both digests are pinned in
       test_shard.ml. *)
    corollary1_workload ~name:"corollary1-curve"
      ~description:
        "Corollary 1 randomised decider over 2048 seeded coin streams \
         on the no-instance G(two-faced real 1 fake 0, 1) — ranks are \
         seeds; wrong counts the one-sided error"
      ~machine:(Locald_turing.Zoo.two_faced ~steps:2 ~real:1 ~fake:0)
      ~expected:false ~total:2048 ~chunk:128 ();
    certify_gmr_workload ~name:"certify-gmr"
      ~description:
        "Theorem 2 LD decider traced per node of the yes-instance \
         G(two-faced real 0 fake 1, 1) — correct = accepted and \
         witnessed an input-identifier read"
      ~machine:(Locald_turing.Zoo.two_faced ~steps:2 ~real:0 ~fake:1)
      ~chunk:64 ();
  ]

let names = List.map (fun w -> w.w_name) all

let find name = List.find_opt (fun w -> w.w_name = name) all

let default_name = "exhaustive-decider"
