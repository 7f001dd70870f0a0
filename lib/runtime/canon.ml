(* Canonical keys for rooted labelled views, with a memo table and a
   class table.

   A key packages (a) the iso-invariant refinement fingerprint — the
   same value as [Iso.view_signature], pinned by a test — and (b),
   whenever the 1-WL refinement of the view is discrete (every vertex
   its own colour), an exact canonical form: vertices renumbered by
   colour, centre rank, labels in rank order, sorted rank-pair edge
   codes, plus a full hash of that form. Two views with discrete
   refinements are isomorphic iff their forms are equal, so the
   expensive backtracking test reduces to a linear comparison; when
   either refinement is not discrete, [equivalent] falls back
   transparently to [Iso.views_isomorphic] — cache and
   canonicalisation can never change an answer, only the route to it.

   The memo table keys computed keys by a structural digest of the raw
   view (collisions resolved by [View.equal_repr]), so repeated
   canonicalisation of equal extractions becomes a hash lookup. It
   pays where views recur (the [Gmr] dedupes); a caller that keys each
   view once turns it off. All key entry points are thread-safe: the
   table is mutex-guarded and the counters are atomics, because keys
   are typically computed under [Pool.map]. *)

open Locald_graph

type stats = { hits : int; misses : int; exact : int; fallback : int }

let no_stats = { hits = 0; misses = 0; exact = 0; fallback = 0 }

let add_stats a b =
  {
    hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    exact = a.exact + b.exact;
    fallback = a.fallback + b.fallback;
  }

(* Run-scoped counters, mirrored from every table's per-instance
   counters: what [locald --stats] and the bench JSON report without
   having to thread table handles out of the decision layers. They live
   in the ambient telemetry run, so [Telemetry.new_run] restarts the
   tally. *)
let g_hits = Telemetry.Counter.make "canon.hits"
let g_misses = Telemetry.Counter.make "canon.misses"
let g_exact = Telemetry.Counter.make "canon.exact"
let g_fallback = Telemetry.Counter.make "canon.fallback"

let run_stats () =
  {
    hits = Telemetry.Counter.get g_hits;
    misses = Telemetry.Counter.get g_misses;
    exact = Telemetry.Counter.get g_exact;
    fallback = Telemetry.Counter.get g_fallback;
  }

(* A discrete refinement numbers the vertices [0 .. n-1], so the colour
   of a vertex is its rank; [f_edges] holds each edge as the code
   [a * n + b] of its rank pair [a < b], sorted ascending. *)
type 'a form = {
  f_center : int;
  f_labels : 'a array;
  f_edges : int array;
}

type 'a key = {
  k_fingerprint : int;
  k_order : int;
  k_size : int;
  k_form : 'a form option;
  k_form_hash : int;
  k_view : 'a View.t;
}

type 'a t = {
  label_hash : 'a -> int;
  label_equal : 'a -> 'a -> bool;
  use_cache : bool;
  memo : (int, ('a View.t * 'a key) list ref) Hashtbl.t;
  lock : Mutex.t;
  s_hits : int Atomic.t;
  s_misses : int Atomic.t;
  s_exact : int Atomic.t;
  s_fallback : int Atomic.t;
}

let create ?(cache = true) ?(hash = Hashtbl.hash) ~equal () =
  {
    label_hash = hash;
    label_equal = equal;
    use_cache = cache;
    memo = Hashtbl.create 256;
    lock = Mutex.create ();
    s_hits = Atomic.make 0;
    s_misses = Atomic.make 0;
    s_exact = Atomic.make 0;
    s_fallback = Atomic.make 0;
  }

let stats t =
  {
    hits = Atomic.get t.s_hits;
    misses = Atomic.get t.s_misses;
    exact = Atomic.get t.s_exact;
    fallback = Atomic.get t.s_fallback;
  }

let fingerprint k = k.k_fingerprint
let view k = k.k_view
let exact k = k.k_form <> None

(* Structural (not iso-invariant) digest of a view, for the memo
   buckets only. *)
let raw_digest t (v : 'a View.t) =
  let g = v.View.graph in
  let h = ref (Hashtbl.hash (v.View.center, Graph.order g, Graph.size g)) in
  let mix x = h := (!h * 131) + x in
  Array.iter (fun x -> mix (t.label_hash x)) v.View.labels;
  for u = 0 to Graph.order g - 1 do
    mix (u * 8191);
    Array.iter mix (Graph.neighbours g u)
  done;
  !h land max_int

(* The form hash of a key without an exact form; real form hashes are
   non-negative. *)
let no_form = -1

let mix h x = (h lxor x) * 0x100000001b3

(* A full hash of an exact form — every label and every edge code, not
   the bounded prefix [Hashtbl.hash] reads — so that equal forms hash
   equally ([label_hash] respects [label_equal]) and distinct forms
   almost never do. *)
let form_hash t f =
  let h = ref (mix 0xcbf29ce4 f.f_center) in
  Array.iter (fun x -> h := mix !h (t.label_hash x)) f.f_labels;
  Array.iter (fun e -> h := mix !h e) f.f_edges;
  !h land max_int

(* The form of a discrete refinement: [rank] numbers the vertices
   [0 .. n-1]. Edge codes come out sorted without a comparison sort:
   [next.(a)] is where the next edge [(a, b)] with [a < b] goes, and
   edges are placed with [b] ascending, so each [a]'s run is sorted. *)
let discrete_form (view : 'a View.t) rank =
  let g = view.View.graph in
  let n = Graph.order g in
  let order = Array.make n 0 in
  Array.iteri (fun v r -> order.(r) <- v) rank;
  let next = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    let nb = Graph.neighbours g u in
    for j = 0 to Array.length nb - 1 do
      if rank.(nb.(j)) > rank.(u) then next.(rank.(u) + 1) <- next.(rank.(u) + 1) + 1
    done
  done;
  for a = 1 to n do
    next.(a) <- next.(a) + next.(a - 1)
  done;
  let edges = Array.make (Graph.size g) 0 in
  for b = 0 to n - 1 do
    let nb = Graph.neighbours g order.(b) in
    for j = 0 to Array.length nb - 1 do
      let a = rank.(nb.(j)) in
      if a < b then begin
        edges.(next.(a)) <- (a * n) + b;
        next.(a) <- next.(a) + 1
      end
    done
  done;
  {
    f_center = rank.(view.View.center);
    f_labels = Array.map (fun v -> view.View.labels.(v)) order;
    f_edges = edges;
  }

let compute t (view : 'a View.t) =
  let g = view.View.graph in
  let n = Graph.order g in
  let d = View.dist_from_center view in
  let init =
    Array.mapi (fun i x -> Hashtbl.hash (t.label_hash x, d.(i))) view.View.labels
  in
  let final = Iso.refine_colors g init in
  (* Colours are key ranks [0 .. k-1], so counting gives the sorted
     multiset, and the refinement is discrete iff [k = n]. *)
  let count = Array.make n 0 in
  Array.iter (fun c -> count.(c) <- count.(c) + 1) final;
  let multiset = ref [] and distinct = ref 0 in
  for c = n - 1 downto 0 do
    if count.(c) > 0 then incr distinct;
    for _ = 1 to count.(c) do
      multiset := c :: !multiset
    done
  done;
  (* Same formula as [Iso.view_signature] (pinned by a test), so code
     that buckets by signature keeps its exact bucket boundaries. *)
  let fp = Hashtbl.hash (final.(view.View.center), !multiset, Graph.size g) in
  let form = if !distinct = n then Some (discrete_form view final) else None in
  {
    k_fingerprint = fp;
    k_order = n;
    k_size = Graph.size g;
    k_form = form;
    k_form_hash = (match form with Some f -> form_hash t f | None -> no_form);
    k_view = view;
  }

let key t view =
  if not t.use_cache then compute t view
  else begin
    let dg = raw_digest t view in
    Mutex.lock t.lock;
    let found =
      match Hashtbl.find_opt t.memo dg with
      | None -> None
      | Some b ->
          List.find_opt (fun (w, _) -> View.equal_repr t.label_equal view w) !b
    in
    Mutex.unlock t.lock;
    match found with
    | Some (_, k) ->
        Atomic.incr t.s_hits;
        Telemetry.Counter.incr g_hits;
        k
    | None ->
        Atomic.incr t.s_misses;
        Telemetry.Counter.incr g_misses;
        let k = compute t view in
        Mutex.lock t.lock;
        (match Hashtbl.find_opt t.memo dg with
        | Some b -> b := (view, k) :: !b
        | None -> Hashtbl.replace t.memo dg (ref [ (view, k) ]));
        Mutex.unlock t.lock;
        k
  end

let forms_equal t fa fb =
  let n = Array.length fa.f_labels and m = Array.length fa.f_edges in
  fa.f_center = fb.f_center
  && n = Array.length fb.f_labels
  && m = Array.length fb.f_edges
  &&
  let rec edges i = i >= m || (fa.f_edges.(i) = fb.f_edges.(i) && edges (i + 1)) in
  let rec labels i =
    i >= n || (t.label_equal fa.f_labels.(i) fb.f_labels.(i) && labels (i + 1))
  in
  edges 0 && labels 0

let equivalent ?(exact_threshold = max_int) t ka kb =
  ka.k_fingerprint = kb.k_fingerprint
  && ka.k_order = kb.k_order
  && ka.k_size = kb.k_size
  &&
  if ka.k_order > exact_threshold then
    (* Caller-sanctioned signature-only regime for oversized views
       (mirrors the historical dedupe threshold in [Gmr]). *)
    true
  else
    match (ka.k_form, kb.k_form) with
    | Some fa, Some fb ->
        Atomic.incr t.s_exact;
        Telemetry.Counter.incr g_exact;
        forms_equal t fa fb
    | _ ->
        Atomic.incr t.s_fallback;
        Telemetry.Counter.incr g_fallback;
        Iso.views_isomorphic t.label_equal ka.k_view kb.k_view

let isomorphic t a b = equivalent t (key t a) (key t b)

(* Derived canoniser over decorated views: labels paired with an int
   decoration (the id restriction folded in via [View.mapi_labels]).
   Keys of the derived table are iso-invariants of the *decorated* view,
   so grouping by them quotients id-restrictions by decorated-view
   orbit — the unit the ball-local enumeration of [Orbit] reports in. *)
let decorated t =
  {
    label_hash = (fun (x, d) -> Hashtbl.hash (t.label_hash x, d));
    label_equal = (fun (a, da) (b, db) -> da = db && t.label_equal a b);
    use_cache = t.use_cache;
    memo = Hashtbl.create 256;
    lock = Mutex.create ();
    s_hits = Atomic.make 0;
    s_misses = Atomic.make 0;
    s_exact = Atomic.make 0;
    s_fallback = Atomic.make 0;
  }

(* ------------------------------------------------------------------ *)
(* Class table                                                         *)
(* ------------------------------------------------------------------ *)

(* Fingerprint buckets are coarse: [Hashtbl.hash] reads only a bounded
   prefix of the sorted colour list, which for a discrete refinement is
   always [0; 1; 2; ...], so the 32,767 pairwise non-isomorphic views
   of f1-coverage-scale share 212 fingerprints (the largest bucket
   holds 1,067). The table indexes keys by a finer slot —
   fingerprint, order, size and the form hash — so an exact key meets
   only the classes whose forms hash alike. Keys without a form, and
   every key above [exact_threshold], share the [no_form] slot of their
   (fingerprint, order, size) and are resolved there by [equivalent]
   as before. Equivalent keys always share a slot, so the table finds
   exactly the classes the pairwise scan found. *)
type ('a, 'b) classes = {
  c_canon : 'a t;
  c_threshold : int;
  c_index : (int * int * int * int, ('a key * 'b) list ref) Hashtbl.t;
  mutable c_reps : ('a key * 'b) list;  (* newest first *)
}

let classes ?(exact_threshold = max_int) canon =
  {
    c_canon = canon;
    c_threshold = exact_threshold;
    c_index = Hashtbl.create 256;
    c_reps = [];
  }

let slot c k =
  ( k.k_fingerprint,
    k.k_order,
    k.k_size,
    if k.k_order > c.c_threshold then no_form else k.k_form_hash )

let in_bucket c bucket k =
  List.exists
    (fun (r, _) -> equivalent ~exact_threshold:c.c_threshold c.c_canon k r)
    bucket

let mem c k =
  match Hashtbl.find_opt c.c_index (slot c k) with
  | None -> false
  | Some b -> in_bucket c !b k

let add c k x =
  let s = slot c k in
  let fresh b =
    b := (k, x) :: !b;
    c.c_reps <- (k, x) :: c.c_reps;
    true
  in
  match Hashtbl.find_opt c.c_index s with
  | None ->
      let b = ref [] in
      Hashtbl.replace c.c_index s b;
      fresh b
  | Some b -> (not (in_bucket c !b k)) && fresh b

let representatives c ~bucket =
  let buckets = Hashtbl.create 256 in
  List.iter
    (fun ((k, _) as rep) ->
      let b = bucket k in
      match Hashtbl.find_opt buckets b with
      | Some l -> l := rep :: !l
      | None -> Hashtbl.replace buckets b (ref [ rep ]))
    (List.rev c.c_reps);
  Hashtbl.fold (fun _ l acc -> !l @ acc) buckets []
