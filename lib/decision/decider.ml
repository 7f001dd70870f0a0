open Locald_local
open Locald_runtime

let decide ?backend alg lg ~ids =
  Verdict.of_outputs (Runner.run ?backend alg lg ~ids)

let decide_oblivious ob lg = Verdict.of_outputs (Runner.run_oblivious ob lg)

type evaluation = {
  instance : string;
  n : int;
  expected : bool;
  assignments : int;
  correct : int;
  wrong : int;
  failure : (Ids.t * Verdict.t) option;
}

(* Assignments per parallel batch: big enough to amortise the pool's
   dispatch, small enough that the failure witness is found without
   deciding the whole id space. *)
let tally_chunk = 512

(* Decide a stream of assignments: force up to [tally_chunk] of them
   sequentially — the sampling / enumeration order must not depend on
   --jobs — then decide the batch in parallel. Returns the count, the
   correct and wrong tallies, and the first wrong assignment in stream
   order with its index in the stream. *)
let tally prep ~expected seq =
  Telemetry.span "decider.tally" @@ fun () ->
  let verdict_of ids = Verdict.of_outputs (Runner.run_prepared prep ~ids) in
  let correct = ref 0 and wrong = ref 0 and failure = ref None in
  let total = ref 0 in
  let rec drain seq =
    let buf = ref [] and len = ref 0 and rest = ref seq in
    let continue = ref true in
    while !continue && !len < tally_chunk do
      match !rest () with
      | Seq.Nil -> continue := false
      | Seq.Cons (ids, tl) ->
          buf := ids :: !buf;
          incr len;
          rest := tl
    done;
    let chunk = Array.of_list (List.rev !buf) in
    if Array.length chunk > 0 then begin
      let verdicts = Pool.map verdict_of chunk in
      Array.iteri
        (fun i verdict ->
          if Verdict.accepts verdict = expected then incr correct
          else begin
            incr wrong;
            if !failure = None then
              failure := Some (!total + i, chunk.(i), verdict)
          end)
        verdicts;
      total := !total + Array.length chunk;
      drain !rest
    end
  in
  drain seq;
  (!total, !correct, !wrong, !failure)

let drop_rank = Option.map (fun (_, ids, verdict) -> (ids, verdict))

let evaluate ?backend ~rng ~regime ~assignments alg ~expected ~instance lg =
  Telemetry.span "decider.evaluate" @@ fun () ->
  let n = Locald_graph.Labelled.order lg in
  (* The ball structure is id-independent: extract every view once and
     only re-decorate per assignment (see Runner.prepare). The decide
     itself is memoised per (node, ball restriction) under the session's
     memo mode — transparent for the pure deciders this module is
     specified for. *)
  let prep = Runner.prepare ~memo:(Memo.default_mode ()) ?backend alg lg in
  let assignments, correct, wrong, failure =
    tally prep ~expected
      (Seq.init assignments (fun _ -> Ids.sample rng regime ~n))
  in
  { instance; n; expected; assignments; correct; wrong;
    failure = drop_rank failure }

(* ------------------------------------------------------------------ *)
(* Exhaustive evaluation                                               *)
(* ------------------------------------------------------------------ *)

(* One engine answers every exhaustive question: the whole space, a
   shard's chunk, a serve request's [lo, hi).

   By the locality correspondence a node's output under an assignment
   depends only on the restriction to its ball, so scanning each node's
   [perm ~bound ~k:(ball size)] injective restrictions decides the
   all-accept question over all [perm ~bound ~k:n] assignments:

     every assignment accepted  <=>  every node accepts every
                                     restriction of its ball

   (left-to-right because every restriction extends to a global
   assignment when [bound >= n], which [prepare_exhaustive] enforces;
   right-to-left trivially). The answer covers the whole rank space, so
   once it is All_accept every range follows by arithmetic; once it is
   Rejects every range runs the naive loop, whose memo table the scan
   has partly warmed. Both are byte-identical to the naive loop's
   answer.

   The scan costs [scan_cost] decides and pays off only if the engine
   goes on to answer enough ranks, so it waits until the naive decides
   spent would reach that cost (ski rental): a one-rank probe never
   scans, a full range scans at once. *)
type certificate = Unknown | All_accept | Rejects

type 'a exhaustive = {
  x_prep : ('a, bool) Runner.prepared;
  x_bound : int;
  x_n : int;
  x_total : int;
  x_quotient : bool;
  x_scan_cost : int;
  mutable x_cert : certificate;
  mutable x_spent : int;  (* naive decides so far, billed [n] per rank *)
}

let c_scans = Telemetry.Counter.make "decider.scans"
let c_certified = Telemetry.Counter.make "decider.certified"

let prepare_exhaustive ?(quotient = true) ?backend ?memo ?memo_capacity ~bound
    alg lg =
  let n = Locald_graph.Labelled.order lg in
  if bound < n then
    raise
      (Ids.Invalid_ids
         (Printf.sprintf "cannot inject %d nodes into %d ids" n bound));
  let memo =
    match memo with Some m -> m | None -> Memo.default_mode ()
  in
  let prep = Runner.prepare ~memo ?memo_capacity ?backend alg lg in
  let scan_cost = ref 0 in
  for v = 0 to n - 1 do
    scan_cost :=
      !scan_cost + Orbit.perm ~bound ~k:(Array.length (Runner.ball_of prep v))
  done;
  {
    x_prep = prep;
    x_bound = bound;
    x_n = n;
    x_total = Orbit.perm ~bound ~k:n;
    x_quotient = quotient;
    x_scan_cost = !scan_cost;
    x_cert = Unknown;
    x_spent = 0;
  }

let certificate x = x.x_cert

(* Scan every node's restrictions, stopping at the first rejection. *)
let scan x =
  Telemetry.Counter.incr c_scans;
  let rec all_accept v =
    v >= x.x_n
    ||
    let k = Array.length (Runner.ball_of x.x_prep v) in
    (* Read-adaptive scan: each distinct behaviour of the decide on this
       ball is computed once; restrictions that agree on the id slots
       the decide actually reads are trie lookups. *)
    let scan = Runner.restriction_scanner x.x_prep v in
    let scanned = ref 0 in
    let ok =
      Orbit.for_all_injections ~bound:x.x_bound ~k (fun r ->
          incr scanned;
          scan r)
    in
    Orbit.add_scanned !scanned;
    ok && all_accept (v + 1)
  in
  x.x_cert <- (if all_accept 0 then All_accept else Rejects)

type range_evaluation = {
  rv_lo : int;
  rv_hi : int;
  rv_correct : int;
  rv_wrong : int;
  rv_failure : (int * Ids.t * Verdict.t) option;
}

(* Every assignment in range is accepted. When that is wrong, the
   witness the naive loop would report is the range's first assignment,
   re-decided concretely so the stored verdict is the real run's. *)
let certified x ~expected ~lo ~hi =
  Telemetry.Counter.incr c_certified;
  let span = hi - lo in
  let failure =
    if expected || span = 0 then None
    else
      match
        Ids.enumerate_injections_from ~n:x.x_n ~bound:x.x_bound ~start:lo ()
      with
      | Seq.Nil -> None
      | Seq.Cons (ids, _) ->
          Some (lo, ids, Verdict.of_outputs (Runner.run_prepared x.x_prep ~ids))
  in
  {
    rv_lo = lo;
    rv_hi = hi;
    rv_correct = (if expected then span else 0);
    rv_wrong = (if expected then 0 else span);
    rv_failure = failure;
  }

let naive x ~expected ~lo ~hi =
  x.x_spent <- x.x_spent + ((hi - lo) * x.x_n);
  let _, correct, wrong, failure =
    tally x.x_prep ~expected
      (Seq.take (hi - lo)
         (Ids.enumerate_injections_from ~n:x.x_n ~bound:x.x_bound ~start:lo))
  in
  {
    rv_lo = lo;
    rv_hi = hi;
    rv_correct = correct;
    rv_wrong = wrong;
    rv_failure =
      Option.map (fun (i, ids, verdict) -> (lo + i, ids, verdict)) failure;
  }

let evaluate_range x ~expected ~lo ~hi =
  Telemetry.span "decider.evaluate_range" @@ fun () ->
  if lo < 0 || hi < lo || hi > x.x_total then
    invalid_arg
      (Printf.sprintf "Decider.evaluate_range: range [%d,%d) outside [0,%d]" lo
         hi x.x_total);
  if
    x.x_quotient && x.x_cert = Unknown
    && x.x_spent + ((hi - lo) * x.x_n) >= x.x_scan_cost
  then scan x;
  match x.x_cert with
  | All_accept -> certified x ~expected ~lo ~hi
  | Unknown | Rejects -> naive x ~expected ~lo ~hi

let evaluate_exhaustive ?quotient ?backend ?memo ?memo_capacity ~bound alg
    ~expected ~instance lg =
  Telemetry.span "decider.evaluate_exhaustive" @@ fun () ->
  let x =
    prepare_exhaustive ?quotient ?backend ?memo ?memo_capacity ~bound alg lg
  in
  let rv = evaluate_range x ~expected ~lo:0 ~hi:x.x_total in
  {
    instance;
    n = x.x_n;
    expected;
    assignments = x.x_total;
    correct = rv.rv_correct;
    wrong = rv.rv_wrong;
    failure = drop_rank rv.rv_failure;
  }

let all_correct e = e.wrong = 0 && e.assignments > 0

(* ------------------------------------------------------------------ *)
(* Fault-injected decision                                             *)
(* ------------------------------------------------------------------ *)

let outcome_of_node = function
  | Fault_runner.Decided b -> Verdict.Outcome.of_bool b
  | Fault_runner.Unknown _ -> Verdict.Outcome.Unknown

let decide_faulty ~plan ?cost alg lg ~ids =
  let outcomes, stats = Fault_runner.run ~plan ?cost alg lg ~ids in
  (Verdict.of_outcomes (Array.map outcome_of_node outcomes), stats)

type fault_evaluation = {
  f_instance : string;
  f_n : int;
  f_expected : bool;
  f_runs : int;
  f_correct : int;
  f_wrong : int;
  f_degraded : int;
  f_unknown_nodes : int;
  f_dropped : int;
  f_crashed : int;
}

let evaluate_faulty ~rng ~regime ~runs ~plan ?cost alg ~expected ~instance lg =
  let n = Locald_graph.Labelled.order lg in
  let correct = ref 0
  and wrong = ref 0
  and degraded = ref 0
  and unknown_nodes = ref 0
  and dropped = ref 0
  and crashed = ref 0 in
  for k = 0 to runs - 1 do
    (* Each run gets a distinct (but reproducible) fault trace and a
       fresh identifier assignment. *)
    let plan_k = { plan with Faults.seed = plan.Faults.seed + k } in
    let ids = Ids.sample rng regime ~n in
    let d, stats = decide_faulty ~plan:plan_k ?cost alg lg ~ids in
    unknown_nodes := !unknown_nodes + List.length d.Verdict.unknowns;
    dropped := !dropped + stats.Fault_runner.dropped;
    crashed := !crashed + stats.Fault_runner.crashed;
    if Verdict.decisive d then
      if Verdict.accepts d.Verdict.verdict = expected then incr correct
      else incr wrong
    else incr degraded
  done;
  {
    f_instance = instance;
    f_n = n;
    f_expected = expected;
    f_runs = runs;
    f_correct = !correct;
    f_wrong = !wrong;
    f_degraded = !degraded;
    f_unknown_nodes = !unknown_nodes;
    f_dropped = !dropped;
    f_crashed = !crashed;
  }

let pp_fault_evaluation ppf e =
  Format.fprintf ppf
    "%-28s n=%-5d expect=%-4s %d/%d correct, %d wrong, %d degraded (%d unknown nodes)"
    e.f_instance e.f_n
    (if e.f_expected then "yes" else "no")
    e.f_correct e.f_runs e.f_wrong e.f_degraded e.f_unknown_nodes

let pp_evaluation ppf e =
  Format.fprintf ppf "%-28s n=%-6d expect=%-6s %d/%d assignments correct%s"
    e.instance e.n
    (if e.expected then "yes" else "no")
    e.correct e.assignments
    (if e.wrong = 0 then "" else Printf.sprintf "  (%d WRONG)" e.wrong)
