(** The registry of shardable exhaustive workloads.

    A sweep workload is an exhaustive evaluation whose search space is
    addressed by lexicographic assignment rank
    ({!Locald_local.Ids.injection_at}), so it can be partitioned by
    {!Locald_runtime.Shard} across OS processes and merged exactly.
    The registry names the workloads the [locald shard] / [merge] /
    [sweep] subcommands (and the CI kill-resume smoke test) operate
    on; ["exhaustive-decider"] is the same instance, decider and
    expectation as the BENCH_quick.json workload of that name, so a
    merged sweep digest is directly comparable against the committed
    bench pin. *)

type geometry = {
  g_n : int;      (** nodes of the instance *)
  g_bound : int;  (** ids are drawn from [0 .. g_bound - 1] *)
  g_total : int;  (** injective assignments = perm (g_bound, g_n) *)
}

type workload = {
  w_name : string;
  w_description : string;
  w_expected : bool;  (** is the instance in the property? *)
  w_chunk : int;      (** default checkpoint chunk size, in ranks *)
  w_geometry : unit -> geometry;
  w_eval :
    ?backend:Locald_local.Backend.t ->
    ?memo:Locald_runtime.Memo.mode ->
    ?memo_capacity:int ->
    unit ->
    lo:int -> hi:int -> Locald_runtime.Shard.chunk_result;
      (** [w_eval ()] builds the instance, prepared views and
          decide-once memo once; the returned closure evaluates rank
          ranges against them. [w_eval () ~lo:0 ~hi:total] is the
          workload's whole answer, the reference every tiling must
          merge to. Single-process state: build one per shard process
          (or one per serve-daemon engine, shared across requests —
          long-lived holders should pass [memo_capacity]).

          For the exhaustive-decider family the closure holds one
          {!Locald_decision.Decider.exhaustive} engine, so a closure
          that has seen enough ranks answers every later range from
          its quotient certificate in O(1), without deciding. The
          closure is mutable: call it from one domain at a time, as
          {!Locald_runtime.Shard.run} and the serve daemon do (it
          parallelises inside a range itself).

          The optional config is {e per-request}: it overrides first
          the workload's construction-time backend and then the
          ambient session defaults, without reading or mutating the
          process-global [Backend.default] / [Memo.default_mode] when
          given. Workloads without a backend/memo axis (the
          seed-ranked curve, the certify sweep) accept and ignore it;
          every configuration is digest-transparent. *)
}

val all : workload list

val names : string list

val find : string -> workload option

val default_name : string
(** ["exhaustive-decider"]. *)
