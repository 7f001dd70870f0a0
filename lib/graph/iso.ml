(* Isomorphism by 1-WL colour refinement followed by backtracking.

   The refinement assigns canonical colour numbers: at each round the
   (old colour, sorted neighbour colours) keys are sorted and numbered
   in key order, so two isomorphic coloured graphs end with the same
   colour multiset. The backtracking search then only matches vertices
   of equal final colour, maintaining both the forward and the inverse
   partial map so that edges *and* non-edges are preserved at every
   extension step. *)

(* Sort [a.(lo) .. a.(hi - 1)] in place by [cmp]: insertion sort for
   the short runs that neighbour lists and colour classes almost always
   are. *)
let sort_slice cmp (a : int array) lo hi =
  if hi - lo > 16 then begin
    let s = Array.sub a lo (hi - lo) in
    Array.stable_sort cmp s;
    Array.blit s 0 a lo (hi - lo)
  end
  else
    for i = lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && cmp a.(!j) x > 0 do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done

(* Jointly refine the colourings of several graphs until the total
   number of distinct colours stabilises — but at most a fixed number
   of rounds: refinement is only a pruning / bucketing aid (the
   backtracking search is what decides isomorphism exactly), and on
   large graphs that split one colour class per round, running to the
   fixpoint costs Theta(n) rounds of Theta(n) allocation. A fixed
   round count keeps the colouring canonical (both sides always
   perform the same rounds). *)
let max_refinement_rounds = 6

(* Per-domain working arrays for [refine_joint], grown on demand to the
   largest input refined so far and reused across calls (keys are
   computed under [Pool.map], one refinement at a time per domain);
   only the returned colours are fresh. *)
type scratch = {
  mutable off : int array;
  mutable nbr : int array;
  mutable nc : int array;
  mutable idx : int array;
  mutable cur : int array;
  mutable next : int array;
  mutable seen : int array;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { off = [||]; nbr = [||]; nc = [||]; idx = [||]; cur = [||]; next = [||]; seen = [||] })

let grown a len = if Array.length a >= len then a else Array.make (max len (2 * Array.length a)) 0

(* The graphs are laid side by side in one flat vertex space (graph [i]
   owns [base.(i) .. base.(i+1) - 1]) with CSR neighbour slices, so a
   round is a handful of int-array passes. A round's key for vertex [v]
   is (colour, sorted neighbour colours), and the new colour of [v] is
   the rank of its key among the distinct keys of all graphs — colour
   first, then the neighbour colours lexicographically, a proper prefix
   first — so colour numbers are comparable between the graphs. The
   initial colours are ranked the same way, so arbitrary values
   (hashes) become comparable. [idx] lists the vertices sorted by
   current colour, so a round only sorts within each colour class. A
   round that leaves the sum over graphs of the per-graph distinct
   counts unchanged is the last. *)
let refine_joint (pairs : (Graph.t * int array) list) : int array list =
  let graphs = Array.of_list (List.map fst pairs) in
  let k = Array.length graphs in
  let base = Array.make (k + 1) 0 in
  Array.iteri (fun i g -> base.(i + 1) <- base.(i) + Graph.order g) graphs;
  let n = base.(k) in
  let s = Domain.DLS.get scratch_key in
  s.off <- grown s.off (n + 1);
  let off = s.off in
  Array.iteri
    (fun i g ->
      for u = 0 to Graph.order g - 1 do
        let v = base.(i) + u in
        off.(v + 1) <- off.(v) + Graph.degree g u
      done)
    graphs;
  let m2 = off.(n) in
  s.nbr <- grown s.nbr m2;
  s.nc <- grown s.nc m2;
  s.idx <- grown s.idx n;
  s.cur <- grown s.cur n;
  s.next <- grown s.next n;
  if k > 1 then s.seen <- grown s.seen n;
  let nbr = s.nbr and nc = s.nc and idx = s.idx and seen = s.seen in
  Array.iteri
    (fun i g ->
      for u = 0 to Graph.order g - 1 do
        let o = off.(base.(i) + u) and nb = Graph.neighbours g u in
        for j = 0 to Array.length nb - 1 do
          nbr.(o + j) <- base.(i) + nb.(j)
        done
      done)
    graphs;
  let raw =
    match pairs with
    | [ (_, c) ] -> c
    | _ ->
        let raw = Array.make n 0 in
        List.iteri (fun i (_, c) -> Array.blit c 0 raw base.(i) (Array.length c)) pairs;
        raw
  in
  for v = 0 to n - 1 do
    idx.(v) <- v
  done;
  (* Rank the vertices in [idx] order into [dst] by [same]-runs: a new
     number wherever [same prev v] fails; returns the distinct count. *)
  let assign same dst =
    let r = ref (-1) in
    for i = 0 to n - 1 do
      let v = idx.(i) in
      if i = 0 || not (same idx.(i - 1) v) then incr r;
      dst.(v) <- !r
    done;
    !r + 1
  in
  let total_distinct colors distinct =
    if k = 1 then distinct
    else begin
      Array.fill seen 0 n (-1);
      let count = ref 0 in
      for i = 0 to k - 1 do
        for v = base.(i) to base.(i + 1) - 1 do
          if seen.(colors.(v)) <> i then begin
            seen.(colors.(v)) <- i;
            incr count
          end
        done
      done;
      !count
    end
  in
  let lex a b =
    let oa = off.(a) and ob = off.(b) in
    let la = off.(a + 1) - oa and lb = off.(b + 1) - ob in
    let rec go j =
      if j >= la || j >= lb then Int.compare la lb
      else
        match Int.compare nc.(oa + j) nc.(ob + j) with 0 -> go (j + 1) | c -> c
    in
    go 0
  in
  sort_slice (fun a b -> Int.compare raw.(a) raw.(b)) idx 0 n;
  let cur = ref s.cur and next = ref s.next in
  let distinct = assign (fun a b -> raw.(a) = raw.(b)) !cur in
  let rec go rounds total =
    (* One graph already discrete: the next round renumbers every vertex
       to its own colour, so it can be skipped. *)
    if rounds < max_refinement_rounds && not (k = 1 && total = n) then begin
      let col = !cur in
      for j = 0 to m2 - 1 do
        nc.(j) <- col.(nbr.(j))
      done;
      for v = 0 to n - 1 do
        sort_slice Int.compare nc off.(v) off.(v + 1)
      done;
      let i = ref 0 in
      while !i < n do
        let c = col.(idx.(!i)) and j = ref (!i + 1) in
        while !j < n && col.(idx.(!j)) = c do
          incr j
        done;
        sort_slice lex idx !i !j;
        i := !j
      done;
      let dst = !next in
      let d = assign (fun a b -> col.(a) = col.(b) && lex a b = 0) dst in
      next := col;
      cur := dst;
      let total' = total_distinct dst d in
      if total' <> total then go (rounds + 1) total'
    end
  in
  go 0 (total_distinct !cur distinct);
  List.init k (fun i -> Array.sub !cur base.(i) (base.(i + 1) - base.(i)))

let refine_colors g colors =
  match refine_joint [ (g, colors) ] with
  | [ c ] -> c
  | _ -> assert false

let sorted_copy a =
  let b = Array.copy a in
  Array.sort compare b;
  b

(* Backtracking extension of a partial isomorphism. [anchor] optionally
   pre-maps one vertex (the view centre). *)
let search g h colors_g colors_h anchor =
  let n = Graph.order g in
  if Graph.order h <> n || Graph.size g <> Graph.size h then None
  else if sorted_copy colors_g <> sorted_copy colors_h then None
  else begin
    let fwd = Array.make n (-1) in
    let inv = Array.make n (-1) in
    (* Most-constrained-first vertex order: small colour class, then
       high degree. *)
    let class_size = Hashtbl.create 16 in
    Array.iter
      (fun c ->
        Hashtbl.replace class_size c (1 + Option.value ~default:0 (Hashtbl.find_opt class_size c)))
      colors_g;
    let order = Array.init n Fun.id in
    Array.sort
      (fun u v ->
        match compare (Hashtbl.find class_size colors_g.(u)) (Hashtbl.find class_size colors_g.(v)) with
        | 0 -> compare (Graph.degree g v) (Graph.degree g u)
        | c -> c)
      order;
    let consistent u v =
      colors_g.(u) = colors_h.(v)
      && Graph.degree g u = Graph.degree h v
      && Array.for_all
           (fun w -> fwd.(w) = -1 || Graph.mem_edge h fwd.(w) v)
           (Graph.neighbours g u)
      && Array.for_all
           (fun y -> inv.(y) = -1 || Graph.mem_edge g inv.(y) u)
           (Graph.neighbours h v)
    in
    let rec assign i =
      if i >= n then true
      else
        let u = order.(i) in
        if fwd.(u) >= 0 then assign (i + 1)
        else
          let rec try_candidates v =
            if v >= n then false
            else if inv.(v) = -1 && consistent u v then begin
              fwd.(u) <- v;
              inv.(v) <- u;
              if assign (i + 1) then true
              else begin
                fwd.(u) <- -1;
                inv.(v) <- -1;
                try_candidates (v + 1)
              end
            end
            else try_candidates (v + 1)
          in
          try_candidates 0
    in
    let anchored =
      match anchor with
      | None -> true
      | Some (u, v) ->
          if consistent u v then begin
            fwd.(u) <- v;
            inv.(v) <- u;
            true
          end
          else false
    in
    if anchored && assign 0 then Some fwd else None
  end

let joint_colors_of_labels eq labels_g labels_h =
  (* Group the labels of both graphs by [eq]; the colour of a label is
     the index of its first occurrence in the concatenated list. *)
  let all = Array.append labels_g labels_h in
  let reps = ref [] in
  let color_of x =
    let rec find i = function
      | [] ->
          reps := !reps @ [ x ];
          i
      | y :: rest -> if eq x y then i else find (i + 1) rest
    in
    find 0 !reps
  in
  let colors = Array.map color_of all in
  let ng = Array.length labels_g in
  (Array.sub colors 0 ng, Array.sub colors ng (Array.length labels_h))

let find_isomorphism_colored g h cg ch anchor =
  match refine_joint [ (g, cg); (h, ch) ] with
  | [ cg'; ch' ] -> search g h cg' ch' anchor
  | _ -> assert false

let find_graph_isomorphism g h =
  let cg = Array.make (Graph.order g) 0 in
  let ch = Array.make (Graph.order h) 0 in
  find_isomorphism_colored g h cg ch None

let graphs_isomorphic g h = Option.is_some (find_graph_isomorphism g h)

let labelled_isomorphic eq a b =
  let cg, ch = joint_colors_of_labels eq (Labelled.labels a) (Labelled.labels b) in
  Option.is_some
    (find_isomorphism_colored (Labelled.graph a) (Labelled.graph b) cg ch None)

let views_isomorphic eq (a : 'a View.t) (b : 'a View.t) =
  let cg, ch = joint_colors_of_labels eq a.View.labels b.View.labels in
  Option.is_some
    (find_isomorphism_colored a.View.graph b.View.graph cg ch
       (Some (a.View.center, b.View.center)))

let view_signature hash (v : 'a View.t) =
  let d = View.dist_from_center v in
  (* Combine the label hash with the distance from the centre so the
     rooting participates in the refinement. *)
  let init = Array.mapi (fun i x -> Hashtbl.hash (hash x, d.(i))) v.View.labels in
  let final = refine_colors v.View.graph init in
  let multiset = sorted_copy final in
  Hashtbl.hash (final.(v.View.center), Array.to_list multiset, Graph.size v.View.graph)

(* The order type of an injective id restriction: ids.(i) is replaced
   by its rank in the sorted order, so [|5;1;9|] and [|7;2;8|] share
   the order type [|1;0;2|]. Two restrictions with the same order type
   are indistinguishable to an order-invariant algorithm (the
   order-invariance reductions of Naor–Stockmeyer and of
   Fraigniaud–Halldorsson–Korman). *)
let order_type ids =
  let n = Array.length ids in
  let idx = Array.init n Fun.id in
  Array.sort (fun i j -> compare ids.(i) ids.(j)) idx;
  let ranks = Array.make n 0 in
  Array.iteri (fun r i -> ranks.(i) <- r) idx;
  ranks

let views_isomorphic_decorated eq (a : 'a View.t) da (b : 'a View.t) db =
  let paired v deco = Array.mapi (fun i x -> (x, deco.(i))) v.View.labels in
  let eq' (x, dx) (y, dy) = eq x y && (dx : int) = dy in
  let cg, ch = joint_colors_of_labels eq' (paired a da) (paired b db) in
  Option.is_some
    (find_isomorphism_colored a.View.graph b.View.graph cg ch
       (Some (a.View.center, b.View.center)))

let decorated_signature hash (v : 'a View.t) deco =
  let d = View.dist_from_center v in
  (* Like {!view_signature}, with the per-node decoration folded into
     the initial colours: isomorphic decorated views (an isomorphism
     preserving labels AND decoration values) get equal signatures. *)
  let init =
    Array.mapi (fun i x -> Hashtbl.hash (hash x, d.(i), deco.(i))) v.View.labels
  in
  let final = refine_colors v.View.graph init in
  let multiset = sorted_copy final in
  Hashtbl.hash
    (final.(v.View.center), Array.to_list multiset, Graph.size v.View.graph, 1)
