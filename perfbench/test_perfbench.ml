(* The benchmark's own tests, at tiny sizes: percentile math, failure
   accounting and request-list determinism. *)

open Locald_perfbench
module Proto = Locald_runtime.Proto
module Json = Locald_runtime.Telemetry.Json

let check = Alcotest.check
let float = Alcotest.float 1e-9
let one_to n = Array.init n (fun i -> float_of_int (i + 1))

let test_percentiles () =
  check float "p50 of 1..10" 5. (Stats.percentile 0.5 (one_to 10));
  check float "p90 of 1..10" 9. (Stats.percentile 0.9 (one_to 10));
  check float "p90 of 1..100" 90. (Stats.percentile 0.9 (one_to 100));
  check float "p100 is the max" 7. (Stats.percentile 1.0 [| 3.; 7.; 1. |]);
  check float "p90 ignores input order" 9. (Stats.percentile 0.9 (Array.of_list (List.rev (Array.to_list (one_to 10)))));
  check float "odd median" 2. (Stats.median [| 3.; 1.; 2. |]);
  check float "even median" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |]);
  check Alcotest.int "samples beyond p90 of 100" 10 (Stats.beyond 0.9 100);
  check Alcotest.int "samples beyond p90 of 99" 9 (Stats.beyond 0.9 99);
  check Alcotest.bool "p90 reported at n=100" true (Stats.summarise (one_to 100)).Stats.p90_reported;
  check Alcotest.bool "p90 flagged at n=99" false (Stats.summarise (one_to 99)).Stats.p90_reported;
  check Alcotest.int "summary carries its count" 99 (Stats.summarise (one_to 99)).Stats.n

let reply_with_digest d =
  Proto.response ~id:1 ~op:Proto.Decide (Json.Obj [ ("digest", Json.String d) ])

let test_fail_share () =
  let expected = "right" in
  let verdicts =
    List.map
      (fun reply -> Tally.verdict ~expected (Tally.digest_of_reply reply))
      [
        Some (reply_with_digest "right");
        Some (reply_with_digest "wrong");
        Some (Proto.busy_response ~id:3 ~inflight:64 ());
        Some (Proto.error_response ~id:4 "boom");
        None;
        Some (reply_with_digest "right");
      ]
  in
  let t = Tally.count verdicts in
  check Alcotest.int "attempted" 6 t.Tally.attempted;
  check Alcotest.int "failed" 4 t.Tally.failed;
  check float "fail share" (4. /. 6.) (Tally.fail_share t);
  check
    Alcotest.(list (pair string int))
    "reasons"
    [ ("busy", 1); ("closed", 1); ("error", 1); ("wrong-digest", 1) ]
    t.Tally.reasons;
  check float "no ops, no failures" 0. (Tally.fail_share (Tally.count []))

let totals = function
  | "exhaustive-decider" -> 40320
  | "exhaustive-decider-a1" -> 720
  | "corollary1-curve" -> 2048
  | "certify-gmr" -> 2415
  | w -> Alcotest.failf "unexpected workload %s" w

let test_request_list () =
  let gen seed = Mix.generate ~seed ~total_of:totals ~blocks:3 in
  check Alcotest.string "same seed, same bytes" (Mix.to_bytes (gen 7)) (Mix.to_bytes (gen 7));
  check Alcotest.bool "another seed, other bytes" true (Mix.to_bytes (gen 7) <> Mix.to_bytes (gen 8));
  let reqs = gen 7 in
  check Alcotest.int "whole blocks" (3 * Mix.block_size) (List.length reqs);
  (* Every block holds the same multiset of kinds, whatever the seed. *)
  let labels block seed =
    List.filteri
      (fun i _ -> i / Mix.block_size = block)
      (List.map (fun q -> q.Mix.q_kind.Mix.k_label) (gen seed))
    |> List.sort compare
  in
  check Alcotest.(list string) "block composition is seed-free" (labels 0 7) (labels 2 8);
  List.iter
    (fun q ->
      let total = totals q.Mix.q_kind.Mix.k_workload in
      if q.Mix.q_lo < 0 || q.Mix.q_hi > total || q.Mix.q_lo >= q.Mix.q_hi then
        Alcotest.failf "range [%d,%d) outside [0,%d]" q.Mix.q_lo q.Mix.q_hi total)
    reqs

let () =
  Alcotest.run "perfbench"
    [
      ("stats", [ Alcotest.test_case "percentiles and reportability" `Quick test_percentiles ]);
      ("tally", [ Alcotest.test_case "fail_share counts wrong digests and busy replies" `Quick test_fail_share ]);
      ("mix", [ Alcotest.test_case "seeded request list" `Quick test_request_list ]);
    ]
