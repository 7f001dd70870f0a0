(* The serve-mix traffic: a seeded request list over the Sweeps
   registry.

   Traffic comes in blocks. Every block holds the same kinds in the
   same order, so the mix's composition and interleaving (and with them
   throughput and the latency percentiles) do not depend on the seed;
   the seed picks the rank offsets of the partial ranges, one in each
   slice of the rank space. Each partial kind draws [offsets_per_kind]
   offsets once and cycles through them, so a run repeats a few
   distinct ranges (the daemon's warm engines see repeated keys) and
   the in-process cross-check after the timed phase stays short. *)

module Proto = Locald_runtime.Proto

type kind = {
  k_label : string;
  k_workload : string;
  k_config : Proto.config;
  k_width : int option;  (* [None]: the full rank range *)
}

let async7 =
  { Proto.no_config with Proto.c_backend = Some "async"; c_sched_seed = Some 7 }

let memo_off = { Proto.no_config with Proto.c_memo = Some "off" }

let kind ?(config = Proto.no_config) ?width label workload =
  { k_label = label; k_workload = workload; k_config = config; k_width = width }

let exh_full = kind "exh-full" "exhaustive-decider"
let exh_full_async = kind "exh-full-async" ~config:async7 "exhaustive-decider"
let exh_full_off = kind "exh-full-memo-off" ~config:memo_off "exhaustive-decider"
let exh_part = kind "exh-part" ~width:4096 "exhaustive-decider"
let exh_part_async = kind "exh-part-async" ~config:async7 ~width:4096 "exhaustive-decider"
let exh_part_off = kind "exh-part-memo-off" ~config:memo_off ~width:4096 "exhaustive-decider"
let a1_full = kind "a1-full" "exhaustive-decider-a1"
let a1_part = kind "a1-part" ~width:128 "exhaustive-decider-a1"
let curve_part = kind "curve-part" ~width:128 "corollary1-curve"
let certify_full = kind "certify-full" "certify-gmr"
let certify_part = kind "certify-part" ~width:256 "certify-gmr"

(* The weights come from the serve tier's five-request mix
   (bench/main.ml, [serve_mix], pinned in BENCH_serve.json): two
   exhaustive-decider requests (startup default, async seed 7), one
   exhaustive-decider-a1, one 128-rank corollary1-curve range and one
   certify-gmr, all full ranges but the curve. A block is three rounds
   of those five slots. Round one is the serve tier's mix itself;
   rounds two and three keep every slot's workload and vary only what
   the serve tier does not send: the two exhaustive slots together
   send each config (default, async seed 7, memo off) once full and
   once as a partial range, and the a1 and certify slots send partial
   ranges. So per block: exhaustive-decider 6 of 15 (3 full), a1 3 (1
   full), curve 3, certify 3 (1 full).

   The order inside a block is not the rounds' order. The load goes
   in steps of one request per connection (Serve_mix.load), and every
   request of a step waits for the whole step, so the latencies are
   the steps' sums of handler times. With two connections and a block
   of 15, two blocks are cut into steps of every adjacent pair of the
   block once (the last request pairing with the next block's first),
   so the median latency is the 8th smallest adjacent-pair sum. The
   order sends the four slow full ranges back to back and the partial
   ranges after them from the largest to the smallest, which puts an
   isolated pair at that rank: the memo-off exhaustive partial range
   (about 35 ms) with a curve range (about 20 ms), about 55 ms against
   about 40 ms for the next smaller pair and 75 ms for the next
   larger. The median then stays on that pair while the host's speed
   drifts, instead of jumping between pairs. *)
let block =
  [
    exh_full; exh_full_async; exh_full_off; certify_full;
    exh_part; exh_part_async; exh_part_off;
    curve_part; curve_part; curve_part; certify_part; certify_part;
    a1_part; a1_full; a1_part;
  ]

let block_size = List.length block

let kinds = List.sort_uniq compare block

let offsets_per_kind = 8

(* One engine per distinct (workload, config) pair — what the daemon's
   engine cache keys on, and what set-up warms. *)
let engines = List.sort_uniq compare (List.map (fun k -> (k.k_workload, k.k_config)) block)

type request = {
  q_kind : kind;
  q_lo : int;
  q_hi : int;
  q_req : Proto.request;
}

(* [generate ~seed ~total_of ~blocks] is the request list of [blocks]
   blocks, ids numbered from 1. [total_of w] is the rank-space size of
   Sweeps workload [w]. A partial kind's [i]-th request uses offset
   [i mod offsets_per_kind]. *)
let generate ~seed ~total_of ~blocks =
  let rng = Random.State.make [| 0x5e7e; seed |] in
  let offsets =
    List.map
      (fun k ->
        match k.k_width with
        | None -> (k.k_label, [||])
        | Some w ->
            let span = total_of k.k_workload - w + 1 in
            if span < 1 then
              invalid_arg (Printf.sprintf "Mix.generate: %s wider than its rank space" k.k_label);
            (* Stratified: the [j]-th offset falls in the [j]-th of
               [offsets_per_kind] equal slices of the span, so every seed
               spreads a kind's ranges over its whole rank space and the
               cost of the partial ranges changes little from seed to
               seed. *)
            let slice j = j * span / offsets_per_kind in
            ( k.k_label,
              Array.init offsets_per_kind (fun j ->
                  slice j + Random.State.int rng (max 1 (slice (j + 1) - slice j))) ))
      kinds
  in
  let issued = Hashtbl.create 16 in
  List.concat (List.init blocks (fun _ -> block))
  |> List.mapi (fun i k ->
         let n = Option.value ~default:0 (Hashtbl.find_opt issued k.k_label) in
         Hashtbl.replace issued k.k_label (n + 1);
         let lo, hi =
           match k.k_width with
           | None -> (0, total_of k.k_workload)
           | Some w ->
               let offs = List.assoc k.k_label offsets in
               let lo = offs.(n mod offsets_per_kind) in
               (lo, lo + w)
         in
         let q_req =
           Proto.request ~workload:k.k_workload ~lo ~hi ~config:k.k_config ~id:(i + 1) Proto.Decide
         in
         { q_kind = k; q_lo = lo; q_hi = hi; q_req })

(* The wire bytes of a request list: what "the same seed yields the
   same traffic" is checked over. *)
let to_bytes reqs =
  let b = Buffer.create 4096 in
  List.iter
    (fun q -> Buffer.add_bytes b (Proto.encode_frame (Proto.request_to_json q.q_req)))
    reqs;
  Buffer.contents b
