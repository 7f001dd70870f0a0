(* Tests for the decision layer: verdicts, properties, deciders, the
   Id-oblivious simulation A*, promise problems and randomised
   deciders. *)

open Locald_graph
open Locald_local
open Locald_decision

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let rng () = Random.State.make [| 0xdec1de |]

(* ------------------------------------------------------------------ *)
(* Verdicts                                                            *)
(* ------------------------------------------------------------------ *)

let test_verdict () =
  check bool "all yes accepts" true (Verdict.accepts (Verdict.of_outputs [| true; true |]));
  (match Verdict.of_outputs [| true; false; false |] with
  | Verdict.Reject nos -> check (Alcotest.list int) "no-sayers" [ 1; 2 ] nos
  | Verdict.Accept -> Alcotest.fail "should reject");
  check bool "empty accepts" true (Verdict.accepts (Verdict.of_outputs [||]))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let test_stock_properties () =
  let col = Property.proper_colouring ~k:3 in
  check bool "good colouring" true
    (col.Property.mem (Labelled.init (Gen.cycle 6) (fun v -> v mod 3)));
  check bool "bad colouring" false
    (col.Property.mem (Labelled.const (Gen.cycle 6) 0));
  check bool "colour out of range" false
    (col.Property.mem (Labelled.const (Gen.path 2) 5));
  let mis = Property.maximal_independent_set in
  (* Alternating set on a path: maximal and independent. *)
  check bool "MIS yes" true
    (mis.Property.mem (Labelled.init (Gen.path 5) (fun v -> v mod 2)));
  (* Empty set is not maximal. *)
  check bool "empty not maximal" false
    (mis.Property.mem (Labelled.const (Gen.path 5) 0));
  (* Adjacent members are not independent. *)
  check bool "clump not independent" false
    (mis.Property.mem (Labelled.const (Gen.path 3) 1))

let test_invariance_checker () =
  let rng = rng () in
  let col = Property.proper_colouring ~k:3 in
  check bool "colouring invariant" true
    (Property.check_invariance ~rng ~trials:25 col
       (Labelled.init (Gen.cycle 9) (fun v -> v mod 3)));
  (* A property peeking at node numbering is caught. *)
  let bogus = Property.make ~name:"node-0-is-red" (fun lg -> Labelled.label lg 0 = 0) in
  check bool "bogus property caught" false
    (Property.check_invariance ~rng ~trials:60 bogus
       (Labelled.init (Gen.cycle 9) (fun v -> v mod 3)))

(* ------------------------------------------------------------------ *)
(* Deciders                                                            *)
(* ------------------------------------------------------------------ *)

let colouring_decider =
  Algorithm.of_oblivious
    (Algorithm.make_oblivious ~name:"3col" ~radius:1 (fun view ->
         let c = View.center_label view in
         c >= 0 && c < 3
         && Array.for_all
              (fun u -> view.View.labels.(u) <> c)
              (Graph.neighbours view.View.graph view.View.center)))

let test_decide_and_evaluate () =
  let rng = rng () in
  let yes = Labelled.init (Gen.cycle 6) (fun v -> v mod 3) in
  let no = Labelled.const (Gen.cycle 6) 1 in
  let ids = Ids.sequential 6 in
  check bool "accepts yes" true (Verdict.accepts (Decider.decide colouring_decider yes ~ids));
  check bool "rejects no" true (Verdict.rejects (Decider.decide colouring_decider no ~ids));
  let e =
    Decider.evaluate ~rng ~regime:Ids.Unbounded ~assignments:20 colouring_decider
      ~expected:true ~instance:"cycle" yes
  in
  check bool "evaluation all correct" true (Decider.all_correct e);
  check int "assignments counted" 20 e.Decider.assignments;
  let e' =
    Decider.evaluate ~rng ~regime:Ids.Unbounded ~assignments:20 colouring_decider
      ~expected:true ~instance:"wrong-expectation" no
  in
  check int "all wrong when expectation flipped" 20 e'.Decider.wrong;
  check bool "failure witness recorded" true (e'.Decider.failure <> None)

let test_evaluate_exhaustive () =
  let yes = Labelled.init (Gen.path 3) (fun v -> v mod 2) in
  let e =
    Decider.evaluate_exhaustive ~bound:4 colouring_decider ~expected:true
      ~instance:"path" yes
  in
  check int "4P3 assignments" 24 e.Decider.assignments;
  check bool "all correct" true (Decider.all_correct e)

(* ------------------------------------------------------------------ *)
(* The simulation A*                                                   *)
(* ------------------------------------------------------------------ *)

(* The min-id-blaming decider: correct for 2-colouring but genuinely
   id-dependent (only the smaller endpoint of a violated edge says
   no). *)
let blaming_decider =
  Algorithm.make ~name:"blame-min" ~radius:1 (fun view ->
      let ids = match View.ids view with Some ids -> ids | None -> [||] in
      let c = view.View.center in
      let violators =
        Array.to_list (Graph.neighbours view.View.graph c)
        |> List.filter (fun u -> view.View.labels.(u) = view.View.labels.(c))
      in
      not (List.exists (fun u -> ids.(c) < ids.(u)) violators))

let test_a_star_recovers_obliviousness () =
  let rng = rng () in
  let yes = Labelled.init (Gen.path 5) (fun v -> v mod 2) in
  let no = Labelled.make (Gen.path 4) [| 0; 1; 1; 0 |] in
  (* The base decider is correct... *)
  check bool "base correct on yes" true
    (Decider.all_correct
       (Decider.evaluate ~rng ~regime:Ids.Unbounded ~assignments:30 blaming_decider
          ~expected:true ~instance:"" yes));
  check bool "base correct on no" true
    (Decider.all_correct
       (Decider.evaluate ~rng ~regime:Ids.Unbounded ~assignments:30 blaming_decider
          ~expected:false ~instance:"" no));
  (* ... but id-dependent ... *)
  check bool "base is id-dependent" true
    (Option.is_some
       (Oblivious.find_variance_sampled ~rng ~trials:60 ~regime:Ids.Unbounded
          blaming_decider no));
  (* ... and A* decides the same property obliviously. *)
  let simulated = Simulation.a_star ~budget:(Simulation.Exhaustive 5) blaming_decider in
  check bool "A* accepts yes" true
    (Verdict.accepts (Decider.decide_oblivious simulated yes));
  check bool "A* rejects no" true
    (Verdict.rejects (Decider.decide_oblivious simulated no))

let test_assignments_of_budget () =
  let count budget =
    Seq.fold_left (fun acc _ -> acc + 1) 0 (Simulation.assignments_of_budget budget ~k:2)
  in
  check int "exhaustive 3 ids, 2 nodes" 6 (count (Simulation.Exhaustive 3));
  check int "sampled count" 7
    (count (Simulation.Sampled { bound = 10; trials = 7; seed = 1 }))

(* ------------------------------------------------------------------ *)
(* Promise problems                                                    *)
(* ------------------------------------------------------------------ *)

let test_promise_to_property () =
  let p =
    Promise.make ~name:"even-cycles"
      ~promise:(fun lg -> Graph.is_cycle (Labelled.graph lg))
      ~mem:(fun lg -> Labelled.order lg mod 2 = 0)
  in
  let total = Promise.to_property p in
  check bool "in promise and yes" true (total.Property.mem (Labelled.const (Gen.cycle 6) ()));
  check bool "in promise, no" false (total.Property.mem (Labelled.const (Gen.cycle 5) ()));
  check bool "outside promise" false (total.Property.mem (Labelled.const (Gen.path 6) ()))

(* ------------------------------------------------------------------ *)
(* Randomised deciders                                                 *)
(* ------------------------------------------------------------------ *)

let test_randomized_estimate () =
  let rng = rng () in
  (* A per-node biased coin: accepting requires all nodes to say yes. *)
  let alg =
    Randomized.make ~name:"biased" ~radius:0 (fun node_rng _ ->
        Random.State.float node_rng 1.0 < 0.9)
  in
  let lg = Labelled.const (Gen.cycle 4) () in
  let est =
    Randomized_decider.estimate ~rng ~runs:300 ~oblivious:true alg ~ids:None
      ~expected:true ~instance:"cycle4" lg
  in
  let rate = Randomized_decider.accept_rate est in
  (* Expected acceptance 0.9^4 ~ 0.656. *)
  check bool "rate in plausible band" true (rate > 0.5 && rate < 0.8);
  check bool "success = accept for yes" true
    (Float.equal (Randomized_decider.success_rate est) rate)

(* ------------------------------------------------------------------ *)
(* Hereditariness                                                      *)
(* ------------------------------------------------------------------ *)

let test_hereditary_positive () =
  let rng = rng () in
  let col = Property.proper_colouring ~k:3 in
  check bool "3-colouring is hereditary (no violation found)" true
    (Hereditary.looks_hereditary_on ~rng ~samples:100 col
       [
         Labelled.init (Gen.cycle 9) (fun v -> v mod 3);
         Labelled.init (Gen.grid 3 3) (fun v -> ((v mod 3) + (v / 3)) mod 3);
       ])

let test_hereditary_negative () =
  let rng = rng () in
  let mis = Property.maximal_independent_set in
  let lg = Labelled.init (Gen.path 7) (fun v -> v mod 2) in
  (match Hereditary.connected_induced_counterexample ~rng ~samples:100 mis lg with
  | None -> Alcotest.fail "MIS should not be hereditary"
  | Some w ->
      (* The witness really is a violating connected induced subgraph. *)
      let sub, _ = Labelled.induced lg w.Hereditary.subgraph_nodes in
      check bool "witness violates" false (mis.Property.mem sub);
      check bool "witness connected" true
        (Graph.is_connected (Labelled.graph sub)));
  (* Non-members have no say. *)
  check bool "no counterexample on a no-instance" true
    (Hereditary.connected_induced_counterexample ~rng ~samples:50 mis
       (Labelled.const (Gen.path 4) 0)
    = None)

(* ------------------------------------------------------------------ *)
(* Nondeterministic local decision (NLD)                               *)
(* ------------------------------------------------------------------ *)

let test_nld_bipartite_completeness () =
  (* The prover certifies every bipartite instance. *)
  List.iter
    (fun g ->
      check bool "proved and accepted" true
        (Verdict.accepts
           (Nondeterministic.accepts_proved Nondeterministic.bipartite_scheme
              (Labelled.const g ()))))
    [ Gen.cycle 6; Gen.path 7; Gen.grid 3 4; Gen.complete_binary_tree 3;
      Gen.cycle 10 ]

let test_nld_bipartite_soundness () =
  (* No certificate assignment makes the verifier accept an odd
     cycle: exhaustively for C5, sampled for C9. *)
  let rng = rng () in
  check bool "C5 refuted exhaustively" true
    (Nondeterministic.refuted ~candidates:[ 0; 1 ]
       Nondeterministic.bipartite_scheme.Nondeterministic.verifier
       (Labelled.const (Gen.cycle 5) ()));
  check bool "C9 refuted (sampled)" true
    (Nondeterministic.refuted_sampled ~rng ~trials:300 ~candidates:[ 0; 1 ]
       Nondeterministic.bipartite_scheme.Nondeterministic.verifier
       (Labelled.const (Gen.cycle 9) ()))

let test_nld_beats_ld_here () =
  (* Even-vs-odd long cycles are locally indistinguishable — their
     views are pairwise isomorphic — so no local decider (with or
     without ids) exists for bipartiteness; the certificates above
     are doing real work. *)
  let even = Labelled.const (Gen.cycle 8) () in
  let odd = Labelled.const (Gen.cycle 9) () in
  let v_even = View.extract even ~center:0 ~radius:2 in
  let v_odd = View.extract odd ~center:0 ~radius:2 in
  check bool "views of C8 and C9 isomorphic" true
    (Iso.views_isomorphic ( = ) v_even v_odd)

let test_nld_even_cycle_scheme () =
  check bool "even cycle certified" true
    (Verdict.accepts
       (Nondeterministic.accepts_proved Nondeterministic.even_cycle_scheme
          (Labelled.const (Gen.cycle 6) ())));
  check bool "odd cycle refuted" true
    (Nondeterministic.refuted ~candidates:[ 0; 1 ]
       Nondeterministic.even_cycle_scheme.Nondeterministic.verifier
       (Labelled.const (Gen.cycle 7) ()));
  (* The scheme also rejects non-cycles through the degree check. *)
  check bool "path rejected under the prover" true
    (Verdict.rejects
       (Nondeterministic.accepts_proved Nondeterministic.even_cycle_scheme
          (Labelled.const (Gen.path 6) ())))

(* ------------------------------------------------------------------ *)
(* LCL specs                                                           *)
(* ------------------------------------------------------------------ *)

let test_lcl_colouring () =
  let spec = Lcl.proper_colouring ~k:3 in
  let yes = Labelled.init (Gen.cycle 9) (fun v -> v mod 3) in
  let no = Labelled.const (Gen.cycle 9) 1 in
  check bool "property yes" true ((Lcl.property spec).Property.mem yes);
  check bool "property no" false ((Lcl.property spec).Property.mem no);
  check bool "decider decides" true (Lcl.decides spec [ yes; no ])

let test_lcl_mis_and_dominating () =
  let graphs = [ Gen.cycle 7; Gen.grid 3 4; Gen.complete_binary_tree 3 ] in
  List.iter
    (fun g ->
      let lg = Labelled.const g 0 in
      let mis = Labelled.make g (Lcl.greedy_mis lg) in
      check bool "greedy MIS valid" true
        ((Lcl.property Lcl.maximal_independent_set).Property.mem mis);
      (* Every MIS is also a dominating set. *)
      check bool "MIS dominates" true
        ((Lcl.property Lcl.dominating_set).Property.mem mis);
      (* The empty set is neither. *)
      let empty = Labelled.const g 0 in
      check bool "empty not MIS" false
        ((Lcl.property Lcl.maximal_independent_set).Property.mem empty);
      check bool "empty not dominating" false
        ((Lcl.property Lcl.dominating_set).Property.mem empty))
    graphs

let test_lcl_matching () =
  let graphs = [ Gen.cycle 8; Gen.path 7; Gen.grid 3 3 ] in
  List.iter
    (fun g ->
      let lg = Labelled.const g 0 in
      let matching = Labelled.make g (Lcl.greedy_matching lg) in
      check bool "greedy matching valid" true
        ((Lcl.property Lcl.maximal_matching).Property.mem matching);
      (* Unmatching one endpoint breaks the pointer symmetry. *)
      let broken =
        Labelled.mapi
          (fun v x -> if v = 0 then None else x)
          matching
      in
      check bool "broken matching rejected" false
        ((Lcl.property Lcl.maximal_matching).Property.mem broken))
    graphs

let test_lcl_sinkless () =
  (* Orient a cycle consistently: every node points to its successor;
     no node's out-edge is reciprocated. *)
  let g = Gen.cycle 6 in
  let labels =
    Array.init 6 (fun v ->
        let nbrs = Graph.neighbours g v in
        let succ = (v + 1) mod 6 in
        let rec find k = if nbrs.(k) = succ then k else find (k + 1) in
        find 0)
  in
  let lg = Labelled.make g labels in
  check bool "cycle orientation sinkless-valid" true
    ((Lcl.property Lcl.sinkless_orientation).Property.mem lg);
  (* Two nodes pointing at each other violate the progress rule. *)
  let bad =
    Labelled.mapi
      (fun v x ->
        if v = 0 then (
          let nbrs = Graph.neighbours g 0 in
          let rec find k = if nbrs.(k) = 1 then k else find (k + 1) in
          find 0)
        else if v = 1 then (
          let nbrs = Graph.neighbours g 1 in
          let rec find k = if nbrs.(k) = 0 then k else find (k + 1) in
          find 0)
        else x)
      lg
  in
  check bool "2-cycle rejected" false
    ((Lcl.property Lcl.sinkless_orientation).Property.mem bad)

let test_lcl_deciders_are_oblivious () =
  let rng = rng () in
  let spec = Lcl.maximal_independent_set in
  let lg = Labelled.make (Gen.cycle 7) (Lcl.greedy_mis (Labelled.const (Gen.cycle 7) 0)) in
  let lifted = Algorithm.of_oblivious (Lcl.decider spec) in
  check bool "no id variance" true
    (Oblivious.find_variance_sampled ~rng ~trials:30 ~regime:Ids.Unbounded lifted
       lg
    = None)

(* ------------------------------------------------------------------ *)
(* Proof-labelling schemes                                             *)
(* ------------------------------------------------------------------ *)

let leader_instance g leader =
  Labelled.init g (fun v -> v = leader)

let test_pls_completeness () =
  let rng = rng () in
  List.iter
    (fun g ->
      let n = Graph.order g in
      let ids = Ids.shuffled rng n in
      let lg = leader_instance g (n / 2) in
      check bool "proved and accepted" true
        (Verdict.accepts (Pls.accepts_proved Pls.unique_leader lg ~ids)))
    [ Gen.cycle 8; Gen.grid 3 4; Gen.complete_binary_tree 3; Gen.path 9 ]

let test_pls_soundness_two_leaders () =
  let rng = rng () in
  let g = Gen.path 8 in
  let ids = Ids.shuffled rng 8 in
  let two = Labelled.init g (fun v -> v = 0 || v = 7) in
  (* Even the honest prover cannot certify two leaders... *)
  check bool "prover fails on two leaders" true
    (Verdict.rejects (Pls.accepts_proved Pls.unique_leader two ~ids));
  (* ... and random certificates do not help. *)
  let gen_certificate rng =
    {
      Pls.root_id = Random.State.int rng 16;
      level = Random.State.int rng 8;
      parent_id = Random.State.int rng 16;
    }
  in
  check bool "sampled certificates rejected (two leaders)" true
    (Pls.refuted_sampled ~rng ~trials:400 ~gen_certificate Pls.unique_leader two
       ~ids);
  let zero = Labelled.const g false in
  check bool "sampled certificates rejected (no leader)" true
    (Pls.refuted_sampled ~rng ~trials:400 ~gen_certificate Pls.unique_leader zero
       ~ids)

let test_pls_proof_size () =
  let rng = rng () in
  let g = Gen.cycle 16 in
  let ids = Ids.shuffled rng 16 in
  let lg = leader_instance g 3 in
  let certs = Pls.unique_leader.Pls.prover lg ~ids in
  let bits = Pls.proof_bits Pls.leader_cert_bits certs in
  (* Three identifiers/levels below n: O(log n) bits. *)
  check bool "logarithmic certificates" true (bits <= 3 * 5)

(* ------------------------------------------------------------------ *)
(* Decide-once memoisation and the assignment quotient                 *)
(* ------------------------------------------------------------------ *)

module Memo = Locald_runtime.Memo

(* A pure decide that reads identifiers value- and position-
   sensitively, so the exact-ids memo and the quotient have real work
   to be transparent over. *)
let weighed_alg m =
  Algorithm.make ~name:"weighed" ~radius:1 (fun view ->
      let acc = ref (View.center_id view) in
      for u = 0 to View.order view - 1 do
        acc := !acc + ((View.label view u + 1) * View.id view u)
      done;
      !acc mod m = 0)

let gen_labelled =
  QCheck2.Gen.(
    map2
      (fun shape lseed ->
        let k = 3 + (lseed mod 3) in
        let g =
          match shape with
          | 0 -> Gen.cycle k
          | 1 -> Gen.path k
          | 2 -> Gen.star (k - 1)
          | _ -> Gen.complete k
        in
        let st = Random.State.make [| lseed; shape |] in
        Labelled.init g (fun _ -> Random.State.int st 3))
      (int_bound 3) (int_bound 1000))

let with_mode mode f =
  let saved = Memo.default_mode () in
  Memo.set_default_mode mode;
  Fun.protect ~finally:(fun () -> Memo.set_default_mode saved) f

let digest x = Digest.to_hex (Digest.string (Marshal.to_string x []))

let prop_memo_transparent =
  QCheck2.Test.make ~name:"memoised = unmemoised exhaustive evaluation"
    ~count:25 gen_labelled (fun lg ->
      let bound = Labelled.order lg + 1 in
      let eval alg expected mode quotient =
        with_mode mode (fun () ->
            digest
              (Decider.evaluate_exhaustive ~quotient ~bound alg ~expected
                 ~instance:"prop" lg))
      in
      let transparent alg expected =
        let reference = eval alg expected Memo.Off false in
        List.for_all
          (fun (mode, quotient) -> eval alg expected mode quotient = reference)
          [ (Memo.Off, true); (Memo.Exact_ids, false); (Memo.Exact_ids, true) ]
      in
      (* An id-reading decide with failures (exercises the quotient's
         naive fallback) and an all-accepting one (the pure quotient
         fast path). *)
      transparent (weighed_alg 3) false
      && transparent (Algorithm.make ~name:"yes" ~radius:1 (fun _ -> true)) true)

(* The exhaustive engine against the naive reference, range by range.
   One engine serves a shuffled tiling of the rank space plus stray
   ranges, so its certificate starts Unknown (small ranges run naive),
   is scanned once the spent decides reach the scan size, and answers
   the rest as All_accept or Rejects; every answer must equal the
   [quotient:false] range in counts and in failure rank, ids and
   verdict, and the tiling must fold to [evaluate_exhaustive]. *)
let prop_engine_ranges =
  QCheck2.Test.make ~name:"engine ranges = naive ranges" ~count:40
    QCheck2.Gen.(
      quad gen_labelled (int_bound 1_000_000) bool
        (oneofl [ Memo.Off; Memo.Exact_ids ]))
    (fun (lg, seed, expected, memo) ->
      let bound = Labelled.order lg + 1 in
      let st = Random.State.make [| seed |] in
      let check_alg alg final =
        let engine = Decider.prepare_exhaustive ~memo ~bound alg lg in
        let naive =
          Decider.prepare_exhaustive ~quotient:false ~memo:Memo.Off ~bound alg
            lg
        in
        let total =
          Locald_runtime.Orbit.perm ~bound ~k:(Labelled.order lg)
        in
        (* A tiling with random cut points, shuffled, interleaved with
           ranges anywhere in the space. *)
        let cuts =
          List.sort_uniq compare
            (0 :: total
            :: List.init (1 + Random.State.int st 12) (fun _ ->
                   Random.State.int st (total + 1)))
        in
        let rec pieces = function
          | a :: (b :: _ as rest) -> (a, b) :: pieces rest
          | _ -> []
        in
        let tiling = pieces cuts in
        let stray =
          List.init (Random.State.int st 6) (fun _ ->
              let a = Random.State.int st (total + 1)
              and b = Random.State.int st (total + 1) in
              (min a b, max a b))
        in
        let ranges =
          List.map snd
            (List.sort compare
               (List.map
                  (fun r -> (Random.State.bits st, r))
                  (List.map (fun r -> (true, r)) tiling
                  @ List.map (fun r -> (false, r)) stray)))
        in
        let answers =
          List.map
            (fun (in_tiling, (lo, hi)) ->
              let got = Decider.evaluate_range engine ~expected ~lo ~hi in
              let want = Decider.evaluate_range naive ~expected ~lo ~hi in
              (in_tiling, got, got = want))
            ranges
        in
        let folded =
          List.fold_left
            (fun (c, w, f) (in_tiling, rv, _) ->
              if not in_tiling then (c, w, f)
              else
                ( c + rv.Decider.rv_correct,
                  w + rv.Decider.rv_wrong,
                  match (f, rv.Decider.rv_failure) with
                  | Some (r, _, _), Some (r', _, _) when r <= r' -> f
                  | _, None -> f
                  | _, g -> g ))
            (0, 0, None) answers
        in
        let whole =
          Decider.evaluate_exhaustive ~quotient:false ~memo:Memo.Off ~bound alg
            ~expected ~instance:"prop" lg
        in
        let c, w, f = folded in
        List.for_all (fun (_, _, same) -> same) answers
        && c = whole.Decider.correct
        && w = whole.Decider.wrong
        && Option.map (fun (_, ids, v) -> (ids, v)) f = whole.Decider.failure
        && Decider.certificate engine = final
        && Decider.certificate naive = Decider.Unknown
      in
      (* The tiling alone spends [total * n] decides, past the scan
         size, so both engines end certified. *)
      check_alg (weighed_alg 3) Decider.Rejects
      && check_alg
           (Algorithm.make ~name:"yes" ~radius:1 (fun _ -> true))
           Decider.All_accept)

let prop_quotient_variance =
  QCheck2.Test.make ~name:"quotient variance iff naive variance" ~count:25
    gen_labelled (fun lg ->
      let bound = Labelled.order lg + 1 in
      let agree alg =
        let naive =
          Oblivious.find_variance_exhaustive ~quotient:false ~bound alg lg
        in
        let quot =
          Oblivious.find_variance_exhaustive ~quotient:true ~bound alg lg
        in
        match (naive, quot) with
        | None, None -> true
        | Some _, Some w ->
            (* The reconstructed witness must be a concrete,
               independently re-checkable counterexample. *)
            let out ids = (Runner.run alg lg ~ids).(w.Oblivious.node) in
            out w.Oblivious.ids_a <> out w.Oblivious.ids_b
        | _ -> false
      in
      agree (weighed_alg 3)
      && agree (Algorithm.make ~name:"const" ~radius:1 (fun _ -> true)))

let test_refuted_memo_transparent () =
  let refuted_on g =
    Nondeterministic.refuted ~candidates:[ 0; 1 ]
      Nondeterministic.bipartite_scheme.Nondeterministic.verifier
      (Labelled.const g ())
  in
  List.iter
    (fun (name, g, expected) ->
      let off = with_mode Memo.Off (fun () -> refuted_on g) in
      let exact = with_mode Memo.Exact_ids (fun () -> refuted_on g) in
      check bool (name ^ " (memo off)") expected off;
      check bool (name ^ " (memo exact)") expected exact)
    [ ("C5 refuted", Gen.cycle 5, true); ("C6 certified", Gen.cycle 6, false) ]

let quotient_cases =
  Alcotest.test_case "refuted transparent under memo" `Quick
    test_refuted_memo_transparent
  :: List.map QCheck_alcotest.to_alcotest
       [ prop_memo_transparent; prop_engine_ranges; prop_quotient_variance ]

let () =
  Alcotest.run "decision"
    [
      ("verdicts", [ Alcotest.test_case "of_outputs" `Quick test_verdict ]);
      ( "properties",
        [
          Alcotest.test_case "stock properties" `Quick test_stock_properties;
          Alcotest.test_case "invariance checking" `Quick test_invariance_checker;
        ] );
      ( "deciders",
        [
          Alcotest.test_case "decide and evaluate" `Quick test_decide_and_evaluate;
          Alcotest.test_case "exhaustive evaluation" `Quick test_evaluate_exhaustive;
        ] );
      ( "simulation",
        [
          Alcotest.test_case "A* recovers obliviousness" `Quick
            test_a_star_recovers_obliviousness;
          Alcotest.test_case "budget streams" `Quick test_assignments_of_budget;
        ] );
      ("promise", [ Alcotest.test_case "to_property" `Quick test_promise_to_property ]);
      ( "randomised",
        [ Alcotest.test_case "estimate" `Quick test_randomized_estimate ] );
      ( "hereditary",
        [
          Alcotest.test_case "positive" `Quick test_hereditary_positive;
          Alcotest.test_case "negative with witness" `Quick test_hereditary_negative;
        ] );
      ("quotient", quotient_cases);
      ( "nondeterministic",
        [
          Alcotest.test_case "bipartite completeness" `Quick
            test_nld_bipartite_completeness;
          Alcotest.test_case "bipartite soundness" `Quick test_nld_bipartite_soundness;
          Alcotest.test_case "beyond LD" `Quick test_nld_beats_ld_here;
          Alcotest.test_case "even-cycle scheme" `Quick test_nld_even_cycle_scheme;
        ] );
      ( "lcl",
        [
          Alcotest.test_case "colouring" `Quick test_lcl_colouring;
          Alcotest.test_case "mis and dominating" `Quick test_lcl_mis_and_dominating;
          Alcotest.test_case "matching" `Quick test_lcl_matching;
          Alcotest.test_case "sinkless orientation" `Quick test_lcl_sinkless;
          Alcotest.test_case "deciders oblivious" `Quick test_lcl_deciders_are_oblivious;
        ] );
      ( "proof-labelling",
        [
          Alcotest.test_case "completeness" `Quick test_pls_completeness;
          Alcotest.test_case "soundness" `Quick test_pls_soundness_two_leaders;
          Alcotest.test_case "proof size" `Quick test_pls_proof_size;
        ] );
    ]
