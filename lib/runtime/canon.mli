(** Canonical keys for rooted labelled views, a memo table over them,
    and a class table that deduplicates views up to isomorphism.

    Coverage enumeration asks the same question millions of times: are
    these two stripped views isomorphic as rooted labelled graphs?
    [key] canonicalises a view once — refinement fingerprint (equal to
    {!Locald_graph.Iso.view_signature} by construction, pinned by a
    test) plus, when the refinement is discrete, an exact canonical
    form and a full hash of it — after which {!equivalent} is a linear
    comparison instead of a backtracking search, and repeated
    canonicalisations of equal extractions are hash lookups in the memo
    table.

    The fingerprint is a coarse bucket: [Hashtbl.hash] reads only a
    bounded prefix of the sorted colour list, which for a discrete
    refinement is always [0; 1; 2; ...] (f1-coverage-scale's 32,767
    classes share 212 fingerprints). The {!classes} table therefore
    indexes exact keys by fingerprint, order, size and form hash, so
    deduplicating [n] views costs [n] lookups rather than a scan of
    every class in a fingerprint bucket; keys without a form, and keys
    above [exact_threshold], share a sentinel form hash and keep the
    {!equivalent} fallback.

    Transparent-fallback contract: whenever the canonical route cannot
    decide exactly (non-discrete refinement), [equivalent] falls back
    to {!Locald_graph.Iso.views_isomorphic}; with the cache on or off
    the answers are identical (property-tested), and the class table
    finds the classes a pairwise scan finds (property-tested). [hash]
    must respect [equal] (equal labels hash equally), the same contract
    as [Iso.view_signature]. [key], [equivalent] and {!mem} are
    thread-safe. *)

open Locald_graph

type 'a t

type 'a key

type stats = {
  hits : int;      (** memo hits *)
  misses : int;    (** canonicalisations actually performed *)
  exact : int;     (** equivalence decided by canonical-form equality *)
  fallback : int;  (** equivalence decided by the backtracking search *)
}

val create :
  ?cache:bool -> ?hash:('a -> int) -> equal:('a -> 'a -> bool) -> unit -> 'a t
(** [cache:false] disables the memo table (every [key] recanonicalises)
    without changing any answer — the toggle used by the agreement
    tests. [hash] defaults to [Hashtbl.hash]. *)

val key : 'a t -> 'a View.t -> 'a key

val fingerprint : 'a key -> int
(** Iso-invariant: equal for isomorphic views; equal to
    [Iso.view_signature hash view]. *)

val view : 'a key -> 'a View.t

val exact : 'a key -> bool
(** Did canonicalisation produce an exact form (discrete refinement)? *)

val equivalent : ?exact_threshold:int -> 'a t -> 'a key -> 'a key -> bool
(** Rooted-isomorphism test via the keys: fingerprint filter, then
    canonical-form equality when both keys are exact, else the
    backtracking fallback. Views larger than [exact_threshold] are
    compared by fingerprint, order and size alone — the historical
    big-view dedupe regime of [Gmr] (which can keep spurious
    duplicates but never lose a class). *)

val isomorphic : 'a t -> 'a View.t -> 'a View.t -> bool
(** [equivalent] over freshly computed keys; agrees with
    [Iso.views_isomorphic equal] whenever [exact_threshold] is not in
    play. *)

val stats : 'a t -> stats

val no_stats : stats
val add_stats : stats -> stats -> stats

val run_stats : unit -> stats
(** Totals over every table, scoped to the ambient telemetry run
    (counters [canon.*]) — what [locald --stats] and the bench JSON
    surface. [Telemetry.new_run] restarts the tally. *)

(** {1 Class table}

    Deduplication of keys up to {!equivalent}, in input order. *)

type ('a, 'b) classes
(** Classes of keys, each held by its first key (the representative)
    and that key's payload of type ['b]. *)

val classes : ?exact_threshold:int -> 'a t -> ('a, 'b) classes
(** An empty table over keys of the given canoniser; [exact_threshold]
    is passed to every {!equivalent} test the table makes. *)

val add : ('a, 'b) classes -> 'a key -> 'b -> bool
(** [add c k x] opens a new class held by [k] and [x] and returns
    [true], unless [k] is equivalent to a representative already in
    [c], in which case it returns [false] and changes nothing. Not
    thread-safe. *)

val mem : ('a, 'b) classes -> 'a key -> bool
(** Is [k] equivalent to some representative? Safe to call from
    several domains at once while no {!add} runs. *)

val representatives :
  ('a, 'b) classes -> bucket:('a key -> 'g) -> ('a key * 'b) list
(** The representatives in the order of a [Hashtbl.fold] over a table
    that maps [bucket k] to its representatives, newest first, filled
    in input order — the order of the fingerprint-bucket scans this
    table replaced, on which pinned witnesses and digests depend. *)

val decorated : 'a t -> ('a * int) t
(** A fresh canoniser over views whose labels carry an [int] decoration
    (e.g. the ball-restricted id assignment folded into the labels with
    {!Locald_graph.View.mapi_labels}). Label hash and equality are
    derived from [t]'s, the cache toggle is inherited, and the memo
    table is fresh. Keys of the derived canoniser are iso-invariants of
    the {e decorated} view: grouping id-restrictions by them quotients
    the per-node enumeration by decorated-view orbit. *)
