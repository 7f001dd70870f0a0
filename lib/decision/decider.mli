(** Running local algorithms as deciders, and evaluating their
    correctness over identifier assignments.

    A local algorithm [A] decides a property [P] when, for {e every}
    valid identifier assignment, it accepts every yes-instance and
    rejects every no-instance. Correctness is therefore quantified
    over assignments: [evaluate] samples (or exhausts) assignments
    valid under a regime and tallies the verdicts.

    [evaluate] and the exhaustive engine decide batches of assignments
    on the {!Locald_runtime.Pool}; the algorithm's [decide] function
    must therefore be safe to call from several domains at once (pure
    functions and per-call local state are fine). Assignments are
    sampled / enumerated sequentially before each batch, and views are
    pre-extracted once per instance ({!Locald_local.Runner.prepare}),
    so results — including the [failure] witness, which is the first
    wrong assignment in stream order — are identical at any job
    count, and at any simulator backend (the [?backend] of each entry
    point, defaulting to the ambient {!Locald_local.Backend.default};
    the fault-injected entry points below always use the engine their
    plan semantics are defined over). *)

open Locald_graph
open Locald_local

val decide :
  ?backend:Backend.t ->
  ('a, bool) Algorithm.t -> 'a Labelled.t -> ids:Ids.t -> Verdict.t
(** One assignment. [backend] (default {!Backend.default}) selects the
    simulator — verdicts are backend-independent by the cross-backend
    pin. *)

val decide_oblivious : ('a, bool) Algorithm.oblivious -> 'a Labelled.t -> Verdict.t

type evaluation = {
  instance : string;
  n : int;
  expected : bool;       (** is the instance in the property? *)
  assignments : int;     (** assignments tried *)
  correct : int;
  wrong : int;
  failure : (Ids.t * Verdict.t) option;  (** an assignment that went wrong *)
}

val evaluate :
  ?backend:Backend.t ->
  rng:Random.State.t ->
  regime:Ids.regime ->
  assignments:int ->
  ('a, bool) Algorithm.t ->
  expected:bool ->
  instance:string ->
  'a Labelled.t ->
  evaluation
(** Random assignments drawn from the regime. *)

(** {1 Exhaustive evaluation}

    Every injective assignment into [0 .. bound-1] (small instances
    only), addressed by lexicographic rank in
    {!Locald_local.Ids.enumerate_injections}'s order. One engine
    answers every rank range [\[lo, hi)]: the whole space, a shard's
    chunk, a serve request. *)

type 'a exhaustive
(** A prepared exhaustive engine: the instance's pre-extracted views
    and decide-once memo ({!Locald_local.Runner.prepare}), the id
    bound, and a {!certificate} of the ball-local assignment quotient
    that, once known, answers every range. Mutable and single-domain:
    callers evaluate one range at a time on one domain (the engine
    parallelises inside a range on the {!Locald_runtime.Pool}; the
    quotient scan runs on the calling domain). *)

type certificate =
  | Unknown     (** not scanned yet *)
  | All_accept  (** every node accepts every restriction of its ball *)
  | Rejects     (** some node rejects some restriction *)

val prepare_exhaustive :
  ?quotient:bool ->
  ?backend:Backend.t ->
  ?memo:Locald_runtime.Memo.mode ->
  ?memo_capacity:int ->
  bound:int ->
  ('a, bool) Algorithm.t ->
  'a Labelled.t ->
  'a exhaustive
(** Extract the views once. [memo] / [memo_capacity] configure the
    decide-once table explicitly (default:
    {!Locald_runtime.Memo.default_mode}, unbounded) — the per-request
    form long-lived services use instead of mutating the session
    default. [quotient:false] (default [true]) never scans: every range
    runs the naive assignment loop, the reference the quotient is
    tested against.
    @raise Locald_local.Ids.Invalid_ids if [bound] is below the order. *)

val certificate : 'a exhaustive -> certificate

type range_evaluation = {
  rv_lo : int;
  rv_hi : int;
  rv_correct : int;
  rv_wrong : int;
  rv_failure : (int * Ids.t * Verdict.t) option;
      (** first wrong assignment in the range, with its {e global}
          lexicographic rank *)
}

val evaluate_range :
  'a exhaustive -> expected:bool -> lo:int -> hi:int -> range_evaluation
(** The assignments of ranks [\[lo, hi)] only. Any family of ranges
    that tiles [\[0, total)] sums (counts) and minimises (failure
    rank) to exactly [evaluate_exhaustive]'s answer, and every range
    is byte-identical — counts and failure witness — to the naive loop
    under [quotient:false], at any memo mode and job count.

    By locality a node's output depends only on the ids in its ball,
    so the engine decides the all-accept question once for the whole
    space by scanning each node's injective ball restrictions
    ({!Locald_runtime.Orbit.for_all_injections}), [Σ_v perm bound
    |ball v|] decides. While the certificate is [Unknown], a range
    runs the naive loop until the naive decides spent by this engine,
    this range's [(hi - lo) · n] included, reach that scan size; then
    the range scans first. Under [All_accept] a range is answered by
    arithmetic (a wrong expectation re-decides only the range's first
    assignment, as its witness); under [Rejects] every range runs the
    naive loop. Counters: [decider.scans] per scan, [decider.certified]
    per range answered by arithmetic.
    @raise Invalid_argument on a range outside [\[0, total\]]. *)

val evaluate_exhaustive :
  ?quotient:bool ->
  ?backend:Backend.t ->
  ?memo:Locald_runtime.Memo.mode ->
  ?memo_capacity:int ->
  bound:int ->
  ('a, bool) Algorithm.t ->
  expected:bool ->
  instance:string ->
  'a Labelled.t ->
  evaluation
(** [evaluate_range] of a fresh engine over the whole rank space
    [\[0, perm bound n)]. Its cost always reaches the scan size, so
    with [quotient] (the default) it scans at once. *)

val all_correct : evaluation -> bool

val pp_evaluation : Format.formatter -> evaluation -> unit

(** {1 Fault-injected decision}

    The same decision semantics under a {!Faults.plan}: nodes that
    cannot answer soundly contribute [Unknown], and a run with any
    unknown is tallied as {e degraded} — neither correct nor wrong —
    so fault-induced failures are never mistaken for separations. *)

val decide_faulty :
  plan:Faults.plan ->
  ?cost:('a Locald_graph.View.t -> int) ->
  ('a, bool) Algorithm.t ->
  'a Locald_graph.Labelled.t ->
  ids:Ids.t ->
  Verdict.degraded * Fault_runner.stats

type fault_evaluation = {
  f_instance : string;
  f_n : int;
  f_expected : bool;
  f_runs : int;
  f_correct : int;       (** decisive runs matching the expectation *)
  f_wrong : int;         (** decisive runs contradicting it *)
  f_degraded : int;      (** runs with at least one [Unknown] node *)
  f_unknown_nodes : int; (** total unknown nodes across runs *)
  f_dropped : int;       (** total messages lost across runs *)
  f_crashed : int;       (** total crash-stopped nodes across runs *)
}

val evaluate_faulty :
  rng:Random.State.t ->
  regime:Ids.regime ->
  runs:int ->
  plan:Faults.plan ->
  ?cost:('a Locald_graph.View.t -> int) ->
  ('a, bool) Algorithm.t ->
  expected:bool ->
  instance:string ->
  'a Locald_graph.Labelled.t ->
  fault_evaluation
(** Repeated faulted runs: run [k] uses fault seed [plan.seed + k] and
    a fresh identifier assignment sampled from the regime, so the whole
    evaluation is reproducible from [rng] and [plan.seed]. *)

val pp_fault_evaluation : Format.formatter -> fault_evaluation -> unit
