(** Graph, labelled-graph and rooted-view isomorphism.

    The separation proofs of the paper rest on local indistinguishability:
    every [t]-view of a no-instance already occurs (up to isomorphism of
    rooted labelled views) in some yes-instance. This module provides the
    exact isomorphism tests used by those experiments, plus a cheap
    canonical signature for bucketing views before the exact test. *)

val graphs_isomorphic : Graph.t -> Graph.t -> bool

val find_graph_isomorphism : Graph.t -> Graph.t -> int array option
(** [find_graph_isomorphism g h] returns a bijection [p] with
    [p.(u) = image of u] such that [u ~ v] in [g] iff [p u ~ p v] in
    [h], if one exists. *)

val labelled_isomorphic :
  ('a -> 'a -> bool) -> 'a Labelled.t -> 'a Labelled.t -> bool
(** Isomorphism that must preserve node labels (up to the given label
    equality). This is the paper's notion of labelled-graph
    isomorphism invariance. *)

val views_isomorphic : ('a -> 'a -> bool) -> 'a View.t -> 'a View.t -> bool
(** Rooted isomorphism: centre maps to centre and labels are preserved.
    Identifiers are deliberately ignored — two views are isomorphic
    exactly when an Id-oblivious algorithm cannot tell them apart. *)

val view_signature : ('a -> int) -> 'a View.t -> int
(** [view_signature hash v] is invariant under rooted labelled
    isomorphism (given that [hash] respects the label equality used in
    {!views_isomorphic}): isomorphic views get equal signatures. Used
    to bucket views; collisions are resolved by the exact test. *)

val order_type : int array -> int array
(** [order_type ids] replaces each identifier by its rank in the sorted
    order of the (injective) array: [[|5;1;9|]] and [[|7;2;8|]] share
    the order type [[|1;0;2|]]. Two id restrictions with equal order
    type are indistinguishable to an {e order-invariant} algorithm —
    the canonicalisation behind the memo's [Order_type] mode. *)

val views_isomorphic_decorated :
  ('a -> 'a -> bool) -> 'a View.t -> int array -> 'a View.t -> int array -> bool
(** [views_isomorphic_decorated eq a da b db] is rooted isomorphism
    that must preserve labels {e and} the per-node integer decorations
    [da]/[db] (e.g. id order types): the exact equivalence underlying
    decorated canonical keys. *)

val decorated_signature : ('a -> int) -> 'a View.t -> int array -> int
(** [decorated_signature hash v deco] extends {!view_signature} with a
    per-node integer decoration folded into the refinement's initial
    colours; invariant under {!views_isomorphic_decorated}. *)

val refine_colors : Graph.t -> int array -> int array
(** One-graph 1-WL colour refinement, with canonical colour numbering:
    the output colours of isomorphic coloured graphs are equal as
    multisets, and each colour is the rank of its refinement key, so a
    discrete refinement numbers the vertices [0 .. n-1]. Stops when a
    round leaves the number of distinct colours unchanged, or after 6
    rounds. *)

val refine_joint : (Graph.t * int array) list -> int array list
(** {!refine_colors} over several graphs at once: colours are numbered
    jointly, so equal numbers mean equal keys across the graphs, and the
    stopping rule watches the sum of the per-graph distinct counts. The
    pruning colouring of the backtracking search; exposed for the
    differential tests against the list-based reference. *)
