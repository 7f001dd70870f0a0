(** Request semantics of the locald decision service.

    Interprets {!Locald_runtime.Proto} requests against the
    {!Sweeps} workload registry (decide), the {!Certify} registry
    (certify) and the telemetry surface (metrics), producing the
    {!Locald_runtime.Serve.handlers} the daemon's loop runs.

    {b Engine cache.} Each distinct (workload, backend config, memo
    mode) builds one {e engine} — the workload's [w_eval] closure:
    prepared views plus a decide-once memo table bounded by
    [memo_capacity], and for exhaustive workloads a quotient
    certificate. Engines persist across requests in an LRU cache
    of at most [max_engines], so repeated workloads hit warm memo
    tables or certificates (the [memo.hits] and [decider.certified]
    counters visibly grow across requests — the point of the daemon).
    Both eviction levels are digest-transparent.

    {b Per-request config, never ambient.} The daemon's defaults are
    captured once at {!create}; a request's [backend] / [sched_seed] /
    [fifo] / [memo] / [jobs] override them for that request only, by
    explicit threading. This module never touches
    [Backend.set_default] or [Memo.set_default_mode]. Unknown backend
    or memo names, and out-of-range ranks or job counts, are rejected
    with an error response — never coerced.

    {b Determinism.} Decide results carry counts and the
    {!Locald_runtime.Shard.result_digest} only — no wall times, no
    cache stats — so a full-range response is byte-comparable against
    the committed BENCH pins and against any one-shot CLI run of the
    same workload. *)

type t

val default_max_engines : int
(** 8. *)

val default_memo_capacity : int
(** 65536 entries per engine. *)

val create : ?max_engines:int -> ?memo_capacity:int -> unit -> t
(** Capture the session defaults (backend, memo mode, pool width) and
    start with an empty engine cache. *)

val env_problems : unit -> string list
(** The union of {!Locald_local.Backend.env_problems} and
    {!Locald_runtime.Memo.env_problems} — what [locald serve] refuses
    to start on (a silently coerced config would corrupt pinned
    digests). *)

val handlers : t -> Locald_runtime.Serve.handlers
(** The dispatcher: decide / certify / metrics / ping answer with
    [ok] responses, shutdown answers and begins the drain, unknown or
    ill-typed requests answer with error responses. Handler exceptions
    are caught and returned as error responses — a request can fail,
    the daemon cannot. *)
