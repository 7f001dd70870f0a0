(* The parallel runtime: pool semantics, canonical view keys, the
   decider's view hoist, and the determinism contract — every
   experiment driver must produce byte-identical results at any job
   count and across repeated runs with a fixed seed. *)

open Locald_graph
open Locald_local
open Locald_core
open Locald_runtime

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* A shared explicit pool so the unit tests exercise the genuinely
   parallel path regardless of how the default pool is sized. *)
let pool = lazy (Pool.create ~jobs:3)

(* ------------------------------------------------------------------ *)
(* Pool semantics                                                      *)
(* ------------------------------------------------------------------ *)

let test_map_matches_sequential () =
  let pool = Lazy.force pool in
  let f x = (x * x) + 1 in
  List.iter
    (fun n ->
      let xs = Array.init n (fun i -> (i * 7) mod 23) in
      check
        (Alcotest.array int)
        (Printf.sprintf "map = Array.map at n=%d" n)
        (Array.map f xs)
        (Pool.map ~pool f xs))
    [ 0; 1; 2; 3; 17; 100; 1000 ]

let test_map_list () =
  let pool = Lazy.force pool in
  let xs = List.init 257 Fun.id in
  check (Alcotest.list int) "map_list = List.map"
    (List.map (fun x -> 3 * x) xs)
    (Pool.map_list ~pool (fun x -> 3 * x) xs)

let test_map_reduce () =
  let pool = Lazy.force pool in
  let xs = Array.init 500 Fun.id in
  check int "map_reduce sums squares"
    (Array.fold_left (fun acc x -> acc + (x * x)) 0 xs)
    (Pool.map_reduce ~pool ~f:(fun x -> x * x) ~combine:( + ) ~init:0 xs)

let test_exception_propagation () =
  let pool = Lazy.force pool in
  let f x = if x = 13 then failwith "unlucky" else x in
  (match Pool.map ~pool f (Array.init 100 Fun.id) with
  | _ -> Alcotest.fail "expected Failure to propagate to the caller"
  | exception Failure msg -> check Alcotest.string "message" "unlucky" msg);
  (* The pool must remain usable after a failed fan-out. *)
  check
    (Alcotest.array int)
    "pool reusable after exception"
    (Array.init 100 (fun i -> i + 1))
    (Pool.map ~pool (fun x -> x + 1) (Array.init 100 Fun.id))

let test_nested_map () =
  let pool = Lazy.force pool in
  (* A map issued from inside a worker takes the sequential path
     instead of deadlocking on the shared queue. *)
  (* Above the small-fan-out sequential threshold, so the outer map
     really runs on the workers and the inner maps exercise the
     inside-a-worker sequential fallback. *)
  let rows = Array.init 40 (fun i -> Array.init 50 (fun j -> i + j)) in
  let sums =
    Pool.map ~pool
      (fun row -> Array.fold_left ( + ) 0 (Pool.map ~pool (fun x -> 2 * x) row))
      rows
  in
  check
    (Alcotest.array int)
    "nested maps compute correctly"
    (Array.map
       (fun row -> Array.fold_left (fun acc x -> acc + (2 * x)) 0 row)
       rows)
    sums

let test_init_in_order () =
  let trace = ref [] in
  let a =
    Pool.init_in_order 10 (fun i ->
        trace := i :: !trace;
        i * 3)
  in
  check (Alcotest.list int) "ascending evaluation order"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !trace);
  check (Alcotest.array int) "values" (Array.init 10 (fun i -> i * 3)) a

let test_split_seeds () =
  let expected =
    let rng = Random.State.make [| 99 |] in
    Array.init 32 (fun _ -> Random.State.bits rng)
  in
  let rng = Random.State.make [| 99 |] in
  check (Alcotest.array int) "split_seeds = sequential bits draws" expected
    (Pool.split_seeds rng 32)

(* ------------------------------------------------------------------ *)
(* Canonical view keys                                                 *)
(* ------------------------------------------------------------------ *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  a

let random_perm rng n = shuffle rng (Array.init n Fun.id)

let arbitrary_labelled =
  QCheck2.Gen.(
    let* n = int_range 3 16 in
    let* seed = int_bound 1_000_000 in
    let rng = Random.State.make [| seed |] in
    let g = Gen.random_connected rng ~n ~p:0.25 in
    let labels = Array.init n (fun _ -> Random.State.int rng 3) in
    return (Labelled.make g labels, seed))

let prop_fingerprint_is_view_signature =
  QCheck2.Test.make ~name:"Canon fingerprint = Iso.view_signature" ~count:60
    arbitrary_labelled (fun (lg, seed) ->
      let canon = Canon.create ~equal:( = ) () in
      let rng = Random.State.make [| seed + 1 |] in
      let v = Random.State.int rng (Labelled.order lg) in
      let view = View.extract lg ~center:v ~radius:2 in
      Canon.fingerprint (Canon.key canon view)
      = Iso.view_signature Hashtbl.hash view)

let prop_relabelling_invariance =
  QCheck2.Test.make
    ~name:"iso-equivalent views: equal fingerprints, equivalent keys" ~count:60
    arbitrary_labelled (fun (lg, seed) ->
      let canon = Canon.create ~equal:( = ) () in
      let rng = Random.State.make [| seed + 2 |] in
      let n = Labelled.order lg in
      let perm = random_perm rng n in
      let lh = Labelled.relabel_nodes lg perm in
      let v = Random.State.int rng n in
      let va = View.extract lg ~center:v ~radius:2 in
      let vb = View.extract lh ~center:perm.(v) ~radius:2 in
      let ka = Canon.key canon va and kb = Canon.key canon vb in
      Canon.fingerprint ka = Canon.fingerprint kb
      && Canon.equivalent canon ka kb
      && Canon.isomorphic canon va vb)

let prop_agrees_with_backtracking =
  QCheck2.Test.make ~name:"Canon.isomorphic = Iso.views_isomorphic" ~count:60
    arbitrary_labelled (fun (lg, seed) ->
      let canon = Canon.create ~equal:( = ) () in
      let rng = Random.State.make [| seed + 3 |] in
      let n = Labelled.order lg in
      let a = Random.State.int rng n and b = Random.State.int rng n in
      let va = View.extract lg ~center:a ~radius:1 in
      let vb = View.extract lg ~center:b ~radius:1 in
      Canon.isomorphic canon va vb = Iso.views_isomorphic ( = ) va vb)

let prop_cache_transparent =
  QCheck2.Test.make ~name:"cache on = cache off" ~count:40 arbitrary_labelled
    (fun (lg, seed) ->
      let cached = Canon.create ~cache:true ~equal:( = ) () in
      let raw = Canon.create ~cache:false ~equal:( = ) () in
      let rng = Random.State.make [| seed + 4 |] in
      let n = Labelled.order lg in
      let views =
        List.init 6 (fun _ ->
            View.extract lg ~center:(Random.State.int rng n) ~radius:1)
      in
      (* Key every view twice through the cached table (forcing memo
         hits), then compare every pair's verdict against the uncached
         table. *)
      List.iter (fun v -> ignore (Canon.key cached v)) views;
      List.for_all
        (fun va ->
          List.for_all
            (fun vb ->
              Canon.equivalent cached (Canon.key cached va)
                (Canon.key cached vb)
              = Canon.equivalent raw (Canon.key raw va) (Canon.key raw vb))
            views)
        views)

(* A view set for the class table: every radius-1 or radius-2 view of
   one of five graph families, shuffled. Cycles, tori and the constant
   grid are vertex-transitive or nearly so, so their refinements are not
   discrete and the table's fallback to the backtracking test runs;
   random graphs give mostly discrete, exact keys. The optional
   threshold puts the larger views in the signature-only regime. *)
let arbitrary_view_set =
  QCheck2.Gen.(
    let* family = int_bound 4 in
    let* radius = int_range 1 2 in
    let* threshold = oneofl [ None; Some 4; Some 6 ] in
    let* seed = int_bound 1_000_000 in
    let rng = Random.State.make [| seed |] in
    let lg =
      match family with
      | 0 -> Labelled.const (Gen.cycle (5 + Random.State.int rng 6)) 0
      | 1 -> Labelled.const (Gen.torus 3 4) 1
      | 2 -> Labelled.const (Gen.grid 4 5) 0
      | 3 -> Labelled.init (Gen.grid 3 5) (fun v -> v mod 2)
      | _ ->
          let n = 6 + Random.State.int rng 12 in
          Labelled.make
            (Gen.random_connected rng ~n ~p:0.2)
            (Array.init n (fun _ -> Random.State.int rng 2))
    in
    let n = Labelled.order lg in
    let centres = shuffle rng (Array.init (2 * n) (fun i -> i mod n)) in
    let views = Array.map (fun v -> View.extract lg ~center:v ~radius) centres in
    return (views, threshold))

(* The pairwise reference: the old bucket scan with the backtracking
   test as its equivalence, bucketed by the historical keys — the
   signature alone, or the (signature, order, size) triple where a
   threshold is in play — and reported by folding the bucket table. *)
let pairwise_representatives views threshold =
  let equiv a b =
    match threshold with
    | Some th when View.order a > th ->
        Iso.view_signature Hashtbl.hash a = Iso.view_signature Hashtbl.hash b
        && View.order a = View.order b
        && Int.equal (Graph.size a.View.graph) (Graph.size b.View.graph)
    | _ -> Iso.views_isomorphic ( = ) a b
  in
  let buckets = Hashtbl.create 256 in
  Array.iteri
    (fun i v ->
      let s = Iso.view_signature Hashtbl.hash v in
      let b =
        match threshold with
        | None -> Hashtbl.hash s
        | Some _ -> Hashtbl.hash (s, View.order v, Graph.size v.View.graph)
      in
      let bucket =
        match Hashtbl.find_opt buckets b with
        | Some l -> l
        | None ->
            let l = ref [] in
            Hashtbl.replace buckets b l;
            l
      in
      if not (List.exists (fun j -> equiv v views.(j)) !bucket) then
        bucket := i :: !bucket)
    views;
  Hashtbl.fold (fun _ l acc -> !l @ acc) buckets []

let prop_class_table_matches_pairwise =
  QCheck2.Test.make ~name:"class table = pairwise Iso.views_isomorphic dedupe"
    ~count:80 arbitrary_view_set (fun (views, threshold) ->
      let canon = Canon.create ~equal:( = ) () in
      let classes = Canon.classes ?exact_threshold:threshold canon in
      let keys = Array.map (Canon.key canon) views in
      Array.iteri (fun i k -> ignore (Canon.add classes k i)) keys;
      let bucket k =
        match threshold with
        | None -> Hashtbl.hash (Canon.fingerprint k)
        | Some _ ->
            let v = Canon.view k in
            Hashtbl.hash (Canon.fingerprint k, View.order v, Graph.size v.View.graph)
      in
      let reps = List.map snd (Canon.representatives classes ~bucket) in
      reps = pairwise_representatives views threshold
      && Array.for_all (Canon.mem classes) keys)

let test_class_table_regimes () =
  let add_all canon classes views =
    List.iteri
      (fun i v -> ignore (Canon.add classes (Canon.key canon v) i))
      views
  in
  (* All radius-2 views of an unlabelled cycle are isomorphic and none is
     discrete: one class, found by the backtracking fallback. *)
  let canon = Canon.create ~equal:( = ) () in
  let classes = Canon.classes canon in
  let cycle = Labelled.const (Gen.cycle 8) 0 in
  add_all canon classes (List.init 8 (fun v -> View.extract cycle ~center:v ~radius:2));
  let count classes =
    List.length (Canon.representatives classes ~bucket:Canon.fingerprint)
  in
  check int "cycle: one class" 1 (count classes);
  check bool "cycle: decided by the fallback" true
    ((Canon.stats canon).Canon.fallback > 0);
  (* Above the threshold, equal fingerprint, order and size make one
     class even where the exact test tells the views apart. *)
  let lg = Labelled.init (Gen.complete_binary_tree 6) (fun v -> v mod 3) in
  let views =
    List.init (Labelled.order lg) (fun v -> View.extract lg ~center:v ~radius:2)
  in
  let canon = Canon.create ~equal:( = ) () in
  let exact = Canon.classes canon and coarse = Canon.classes ~exact_threshold:0 canon in
  add_all canon exact views;
  add_all canon coarse views;
  let triples =
    List.sort_uniq compare
      (List.map
         (fun v ->
           (Iso.view_signature Hashtbl.hash v, View.order v, Graph.size v.View.graph))
         views)
  in
  check int "above the threshold: one class per triple" (List.length triples)
    (count coarse);
  check bool "above the threshold: coarser than exact" true
    (count coarse < count exact)

(* ------------------------------------------------------------------ *)
(* Orbit enumeration and decide-once keys                              *)
(* ------------------------------------------------------------------ *)

let test_orbit_enumeration () =
  let bound = 5 and k = 3 in
  let via_orbit = List.of_seq (Orbit.injections ~bound ~k) in
  check int "count = perm" (Orbit.perm ~bound ~k) (List.length via_orbit);
  let via_ids =
    Ids.enumerate_injections ~n:k ~bound |> Seq.map Ids.to_array |> List.of_seq
  in
  check bool "same order as Ids.enumerate_injections" true
    (List.for_all2 ( = ) via_orbit via_ids);
  (* The imperative scan visits the same restrictions in the same
     order (through a reused scratch buffer). *)
  let seen = ref [] in
  check bool "scan completes" true
    (Orbit.for_all_injections ~bound ~k (fun r ->
         seen := Array.copy r :: !seen;
         true));
  check bool "scan = lazy enumeration" true (List.rev !seen = via_orbit);
  let count = ref 0 in
  check bool "scan stops on first false" false
    (Orbit.for_all_injections ~bound ~k (fun _ ->
         incr count;
         !count < 3));
  check int "stopped early" 3 !count;
  check bool "vacuous when k > bound" true
    (Orbit.for_all_injections ~bound:2 ~k:3 (fun _ -> false))

let test_orbit_extend () =
  let n = 5 and bound = 7 in
  let back = [| 1; 3; 4 |] in
  let r = [| 6; 0; 2 |] in
  let ids = Orbit.extend ~n ~bound ~back r in
  check int "length" n (Array.length ids);
  Array.iteri
    (fun i b -> check int "restriction preserved" r.(i) ids.(b))
    back;
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun x ->
      check bool "id in range" true (x >= 0 && x < bound);
      check bool "id fresh" false (Hashtbl.mem seen x);
      Hashtbl.replace seen x ())
    ids

(* An id-reading pure decide for the scanner and key properties:
   value- and position-sensitive, so only exact keys are sound. *)
let parity_alg m =
  Algorithm.make ~name:"parity" ~radius:1 (fun view ->
      let acc = ref (View.center_id view) in
      for u = 0 to View.order view - 1 do
        acc := !acc + ((View.label view u + 1) * (View.id view u + 1))
      done;
      !acc mod m = 0)

let prop_scanner_agrees =
  QCheck2.Test.make ~name:"restriction scanner = direct decide" ~count:40
    arbitrary_labelled (fun (lg, _seed) ->
      let alg = parity_alg 3 in
      let prep = Runner.prepare alg lg in
      let n = Labelled.order lg in
      (* Scan the smallest ball: perm (k+2) k grows factorially, and the
         agreement being tested is per-node, not per-graph. *)
      let v = ref 0 in
      for u = 1 to n - 1 do
        if
          Array.length (Runner.ball_of prep u)
          < Array.length (Runner.ball_of prep !v)
        then v := u
      done;
      let v = !v in
      let k = Array.length (Runner.ball_of prep v) in
      let scan = Runner.restriction_scanner prep v in
      let bound = k + 2 in
      QCheck2.assume (Orbit.perm ~bound ~k <= 20_000);
      Orbit.for_all_injections ~bound ~k (fun r ->
          scan r
          = Runner.decide_restricted ~memoise:false prep v (Array.copy r)))

let prop_decorated_key_hash =
  QCheck2.Test.make ~name:"decorated keys: equal => hash-equal" ~count:200
    QCheck2.Gen.(pair (int_bound 50) (list_size (int_bound 8) (int_bound 100)))
    (fun (node, ids) ->
      let a = (node, Array.of_list ids) in
      let b = (node, Array.of_list ids) in
      Memo.equal_node_ids a b && Memo.hash_node_ids a = Memo.hash_node_ids b)

let prop_decorated_view_keys =
  QCheck2.Test.make
    ~name:"decorated views: equal_repr => equal fingerprints and keys"
    ~count:40 arbitrary_labelled (fun (lg, seed) ->
      let rng = Random.State.make [| seed + 11 |] in
      let n = Labelled.order lg in
      let v = Random.State.int rng n in
      let view, back = View.extract_mapped lg ~center:v ~radius:1 in
      let k = Array.length back in
      let r = Array.init k (fun _ -> Random.State.int rng 10) in
      let decorate view = View.mapi_labels (fun i x -> (x, r.(i))) view in
      let da = decorate view and db = decorate view in
      let eq (xa, ia) (xb, ib) = xa = xb && ia = ib in
      let lh (x, i) = Hashtbl.hash (x, i) in
      View.equal_repr eq da db
      && View.fingerprint lh da = View.fingerprint lh db
      &&
      let dc = Canon.decorated (Canon.create ~equal:( = ) ()) in
      let ka = Canon.key dc da and kb = Canon.key dc db in
      Canon.fingerprint ka = Canon.fingerprint kb && Canon.equivalent dc ka kb)

let test_canon_memo_hits () =
  let canon = Canon.create ~equal:( = ) () in
  let lg = Labelled.init (Gen.grid 4 4) (fun v -> v mod 2) in
  for _ = 1 to 3 do
    ignore (Canon.key canon (View.extract lg ~center:5 ~radius:2))
  done;
  let s = Canon.stats canon in
  check int "memo hits recorded" 2 s.Canon.hits;
  check int "single canonicalisation" 1 s.Canon.misses

(* ------------------------------------------------------------------ *)
(* The decider hoist: per-assignment work extracts no views            *)
(* ------------------------------------------------------------------ *)

let test_prepared_runner_no_extraction () =
  let regime = Ids.f_linear_plus 1 in
  let p = { Tree_instances.regime; arity = 2; r = 1 } in
  let lg = Tree_instances.small_instance p ~apex:(0, 1) in
  let n = Labelled.order lg in
  let alg = Tree_deciders.p_decider p in
  let before = View.extraction_count () in
  let prep = Runner.prepare alg lg in
  let after_prepare = View.extraction_count () in
  check int "prepare extracts once per node" n (after_prepare - before);
  check int "prepared_size" n (Runner.prepared_size prep);
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to 20 do
    let ids = Ids.sample rng regime ~n in
    let fast = Runner.run_prepared prep ~ids in
    let slow = Runner.run alg lg ~ids in
    check (Alcotest.array bool) "run_prepared = run" slow fast
  done;
  (* The 20 assignments cost 20 * n extractions on the direct path and
     none on the prepared path — the hoist is what keeps exhaustive
     quantification from re-extracting per assignment. *)
  check int "per-assignment work extracts no views" (20 * n)
    (View.extraction_count () - after_prepare)

(* ------------------------------------------------------------------ *)
(* Determinism battery: every driver, jobs in {1, 2, 4}, repeated      *)
(* ------------------------------------------------------------------ *)

let digest x = Digest.to_hex (Digest.string (Marshal.to_string x []))
let seed = 42

let drivers : (string * (unit -> string)) list =
  [
    ("table1", fun () -> digest (Experiments.table1 ~quick:true ~seed ()));
    ("fig1", fun () -> digest (Experiments.fig1 ~quick:true ()));
    ("fig2", fun () -> digest (Experiments.fig2 ~quick:true ()));
    ("fig3", fun () -> digest (Experiments.fig3 ~quick:true ()));
    ( "corollary1",
      fun () -> digest (Experiments.corollary1 ~quick:true ~seed ()) );
    ("p3", fun () -> digest (Experiments.p3 ~quick:true ()));
    ("fuel_diagonal", fun () -> digest (Experiments.fuel_diagonal ~quick:true ()));
    ( "construction",
      fun () -> digest (Experiments.construction ~quick:true ~seed ()) );
    ( "order_invariance",
      fun () -> digest (Experiments.order_invariance ~quick:true ~seed ()) );
    ( "hereditary",
      fun () -> digest (Experiments.hereditary ~quick:true ~seed ()) );
    ("warmups", fun () -> digest (Experiments.warmups ~quick:true ~seed ()));
    (* Fault injection under a fixed plan seed: the whole scenario grid
       (drops, crashes, fuel budgets, retries) must replay exactly —
       the rows embed the plans, so the digest pins those too. *)
    ("faults", fun () -> digest (Experiments.faults ~quick:true ~seed ()));
  ]

let with_jobs jobs f =
  Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs 1) f

let test_driver_determinism (name, run) () =
  let d1 = with_jobs 1 run in
  let d2 = with_jobs 2 run in
  let d4 = with_jobs 4 run in
  let d4' = with_jobs 4 run in
  check Alcotest.string (name ^ ": jobs=2 = jobs=1") d1 d2;
  check Alcotest.string (name ^ ": jobs=4 = jobs=1") d1 d4;
  check Alcotest.string (name ^ ": repeated run identical") d4 d4'

(* ------------------------------------------------------------------ *)
(* Golden regression: results pinned at the seed parameters            *)
(* ------------------------------------------------------------------ *)

let test_golden_table1 () =
  let rows = Experiments.table1 ~quick:true () in
  check int "four cells" 4 (List.length rows);
  let rel cell =
    (List.find (fun c -> c.Experiments.cell = cell) rows).Experiments.relation
  in
  (* The paper's separation pattern: identifiers help except when the
     bound is unknowable and the property is non-computable. *)
  check Alcotest.string "(B, C)" "LD* <> LD" (rel "(B, C)");
  check Alcotest.string "(B, notC)" "LD* <> LD" (rel "(B, notC)");
  check Alcotest.string "(notB, C)" "LD* <> LD" (rel "(notB, C)");
  check Alcotest.string "(notB, notC)" "LD* = LD" (rel "(notB, notC)");
  List.iter
    (fun (c : Experiments.cell_result) ->
      check bool (c.cell ^ ": all evidence holds") true
        (List.for_all snd c.evidence))
    rows

let test_golden_fig1 () =
  let shape =
    List.map
      (fun (x : Experiments.fig1_row) ->
        ((x.arity, x.r, x.t), (x.covered, x.total)))
      (Experiments.fig1 ~quick:true ())
  in
  check
    (Alcotest.list
       (Alcotest.pair
          (Alcotest.triple int int int)
          (Alcotest.pair int int)))
    "F1 coverage counts at seed parameters"
    [ ((2, 1, 0), (127, 127)); ((1, 4, 1), (9, 9)); ((1, 1, 1), (2, 6)) ]
    shape

let test_golden_p3 () =
  match Experiments.p3 ~quick:true () with
  | [ row ] ->
      check bool "halts in window" true row.Experiments.halts_in_window;
      check int "G classes" 322 row.Experiments.g_classes;
      check int "B classes" 322 row.Experiments.b_classes;
      check int "G covered by B" 322 row.Experiments.g_covered_by_b;
      check int "B covered by G" 322 row.Experiments.b_covered_by_g
  | rows -> Alcotest.failf "expected one quick P3 row, got %d" (List.length rows)

(* ------------------------------------------------------------------ *)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_fingerprint_is_view_signature;
      prop_relabelling_invariance;
      prop_agrees_with_backtracking;
      prop_cache_transparent;
      prop_class_table_matches_pairwise;
    ]

let orbit_cases =
  Alcotest.test_case "injection enumeration" `Quick test_orbit_enumeration
  :: Alcotest.test_case "witness extension" `Quick test_orbit_extend
  :: List.map QCheck_alcotest.to_alcotest
       [ prop_scanner_agrees; prop_decorated_key_hash; prop_decorated_view_keys ]

let () =
  Alcotest.run "runtime"
    [
      ( "pool",
        [
          Alcotest.test_case "map = Array.map" `Quick test_map_matches_sequential;
          Alcotest.test_case "map_list" `Quick test_map_list;
          Alcotest.test_case "map_reduce" `Quick test_map_reduce;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "nested maps" `Quick test_nested_map;
          Alcotest.test_case "init_in_order" `Quick test_init_in_order;
          Alcotest.test_case "split_seeds" `Quick test_split_seeds;
        ] );
      ( "canon",
        Alcotest.test_case "memo hits" `Quick test_canon_memo_hits
        :: Alcotest.test_case "class table regimes" `Quick test_class_table_regimes
        :: qcheck_cases );
      ("orbit", orbit_cases);
      ( "hoist",
        [
          Alcotest.test_case "prepared runner extracts no views per assignment"
            `Quick test_prepared_runner_no_extraction;
        ] );
      ( "determinism",
        List.map
          (fun ((name, _) as d) ->
            Alcotest.test_case
              (Printf.sprintf "%s identical at jobs 1/2/4" name)
              `Quick (test_driver_determinism d))
          drivers );
      ( "golden",
        [
          Alcotest.test_case "Table 1 separation pattern" `Quick
            test_golden_table1;
          Alcotest.test_case "F1 coverage counts" `Quick test_golden_fig1;
          Alcotest.test_case "P3 class counts" `Quick test_golden_p3;
        ] );
    ]
