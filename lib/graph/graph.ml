exception Invalid_graph of string

type t = {
  n : int;
  adj : int array array;
  m : int;
}

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid_graph s)) fmt

let check_endpoint n v =
  if v < 0 || v >= n then invalid "vertex %d out of range [0,%d)" v n

let int_compare (a : int) b = if a < b then -1 else if a > b then 1 else 0

let normalise_adj n adj =
  let sets = Array.make n [] in
  Array.iteri
    (fun u nbrs ->
      Array.iter
        (fun v ->
          check_endpoint n v;
          if u = v then invalid "self-loop at vertex %d" u;
          sets.(u) <- v :: sets.(u);
          sets.(v) <- u :: sets.(v))
        nbrs)
    adj;
  (* Int-specialised comparison: the polymorphic [compare] walks the
     runtime representation on every call, which shows up on graph
     construction for the large gadget instances. *)
  let dedup l = List.sort_uniq int_compare l in
  Array.map (fun l -> Array.of_list (dedup l)) sets

let of_adjacency adj =
  let n = Array.length adj in
  let adj = normalise_adj n adj in
  let m = Array.fold_left (fun acc a -> acc + Array.length a) 0 adj / 2 in
  { n; adj; m }

let of_edges ~n edges =
  if n < 0 then invalid "negative vertex count %d" n;
  let sets = Array.make n [] in
  List.iter
    (fun (u, v) ->
      check_endpoint n u;
      check_endpoint n v;
      if u = v then invalid "self-loop at vertex %d" u;
      sets.(u) <- v :: sets.(u);
      sets.(v) <- u :: sets.(v))
    edges;
  let adj = Array.map (fun l -> Array.of_list (List.sort_uniq int_compare l)) sets in
  let m = Array.fold_left (fun acc a -> acc + Array.length a) 0 adj / 2 in
  { n; adj; m }

let empty n =
  if n < 0 then invalid "negative vertex count %d" n;
  { n; adj = Array.make n [||]; m = 0 }

(* Adoption constructor for {!Arena}: the caller guarantees the
   adjacency is already a valid normalised representation (per-vertex
   arrays sorted, deduplicated, symmetric, loop-free, in-range), so no
   checks and no copies are performed. Keeping it total on malformed
   input would cost exactly the normalisation pass the arena exists to
   avoid. *)
let of_sorted_adjacency_unchecked adj =
  let n = Array.length adj in
  let m = Array.fold_left (fun acc a -> acc + Array.length a) 0 adj / 2 in
  { n; adj; m }

let order g = g.n
let size g = g.m

let neighbours g v =
  check_endpoint g.n v;
  g.adj.(v)

let degree g v = Array.length (neighbours g v)

let max_degree g = Array.fold_left (fun acc a -> max acc (Array.length a)) 0 g.adj

(* Binary search in the sorted neighbour array. *)
let mem_edge g u v =
  check_endpoint g.n u;
  check_endpoint g.n v;
  let a = g.adj.(u) in
  let rec search lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) = v then true
      else if a.(mid) < v then search (mid + 1) hi
      else search lo mid
  in
  search 0 (Array.length a)

let edges g =
  let acc = ref [] in
  for u = g.n - 1 downto 0 do
    let nbrs = g.adj.(u) in
    for i = Array.length nbrs - 1 downto 0 do
      let v = nbrs.(i) in
      if u < v then acc := (u, v) :: !acc
    done
  done;
  !acc

let fold_vertices f g init =
  let rec go v acc = if v >= g.n then acc else go (v + 1) (f v acc) in
  go 0 init

let iter_vertices f g =
  for v = 0 to g.n - 1 do
    f v
  done

let vertices g = List.init g.n Fun.id

(* Forward declaration of the per-domain BFS scratch defined below; the
   full-graph BFS only borrows its queue array. *)

let bfs_distances_with queue g src =
  let dist = Array.make g.n max_int in
  dist.(src) <- 0;
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let du = dist.(u) + 1 and nb = g.adj.(u) in
    for j = 0 to Array.length nb - 1 do
      let v = nb.(j) in
      if dist.(v) = max_int then begin
        dist.(v) <- du;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  dist

(* Truncated BFS: only the ball is explored, so extracting small views
   from very large graphs (e.g. deep layered trees) stays cheap. The
   visited set is a per-domain generation-stamped array — no clearing
   between calls and no hashing on the hot path — so each call costs
   O(ball edges + |ball| log |ball|) with zero table churn. *)
type bfs_scratch = {
  mutable stamp : int array;
  mutable bdist : int array;
  mutable bqueue : int array;
  mutable gen : int;
}

let bfs_scratch_key =
  Domain.DLS.new_key (fun () ->
      { stamp = [||]; bdist = [||]; bqueue = [||]; gen = 0 })

let bfs_scratch n =
  let s = Domain.DLS.get bfs_scratch_key in
  if Array.length s.stamp < n then begin
    s.stamp <- Array.make n 0;
    s.bdist <- Array.make n 0;
    s.bqueue <- Array.make n 0;
    s.gen <- 0
  end;
  s.gen <- s.gen + 1;
  s

let bfs_distances g src =
  check_endpoint g.n src;
  bfs_distances_with (bfs_scratch g.n).bqueue g src

let dist g u v = (bfs_distances g u).(v)

let ball g v t =
  check_endpoint g.n v;
  let s = bfs_scratch g.n in
  let gen = s.gen and stamp = s.stamp and dist = s.bdist and queue = s.bqueue in
  stamp.(v) <- gen;
  dist.(v) <- 0;
  queue.(0) <- v;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let du = dist.(u) in
    if du < t then
      Array.iter
        (fun w ->
          if stamp.(w) <> gen then begin
            stamp.(w) <- gen;
            dist.(w) <- du + 1;
            queue.(!tail) <- w;
            incr tail
          end)
        g.adj.(u)
  done;
  let members = Array.sub queue 0 !tail in
  Array.sort int_compare members;
  members

let eccentricity g v =
  let d = bfs_distances g v in
  Array.fold_left
    (fun acc x ->
      if x = max_int then invalid "eccentricity of a disconnected graph"
      else max acc x)
    0 d

let is_connected g =
  if g.n = 0 then true
  else
    let d = bfs_distances g 0 in
    Array.for_all (fun x -> x < max_int) d

let diameter g =
  if g.n = 0 then invalid "diameter of the empty graph";
  fold_vertices (fun v acc -> max acc (eccentricity g v)) g 0

let components g =
  let seen = Array.make g.n false in
  let comps = ref [] in
  for v = 0 to g.n - 1 do
    if not seen.(v) then begin
      let d = bfs_distances g v in
      let comp = ref [] in
      for u = g.n - 1 downto 0 do
        if d.(u) < max_int then begin
          seen.(u) <- true;
          comp := u :: !comp
        end
      done;
      comps := Array.of_list !comp :: !comps
    end
  done;
  List.rev !comps

let induced g vs =
  let back = Array.copy vs in
  let k = Array.length back in
  (* The common caller passes a ball, which is already sorted: detect
     that with one scan and skip the sort. *)
  let presorted = ref true in
  for i = 1 to k - 1 do
    if back.(i - 1) >= back.(i) then presorted := false
  done;
  if not !presorted then Array.sort int_compare back;
  for i = 1 to k - 1 do
    if back.(i) = back.(i - 1) then invalid "induced: duplicate vertex %d" back.(i)
  done;
  Array.iter (check_endpoint g.n) back;
  (* Vertex-to-rank lookup through a generation-stamped per-domain map:
     O(1) per neighbour with no hashing, no clearing between calls.
     Because [back] is sorted and the source adjacency lists are sorted,
     the mapped neighbour ranks come out already sorted — no per-vertex
     sort either. *)
  let s = bfs_scratch g.n in
  let gen = s.gen and rstamp = s.stamp and rmap = s.bdist in
  Array.iteri
    (fun i v ->
      rstamp.(v) <- gen;
      rmap.(v) <- i)
    back;
  let rank u = if rstamp.(u) = gen then rmap.(u) else -1 in
  let adj =
    Array.map
      (fun v ->
        let nbrs = g.adj.(v) in
        let deg = Array.length nbrs in
        let cnt = ref 0 in
        for i = 0 to deg - 1 do
          if rank nbrs.(i) >= 0 then incr cnt
        done;
        let out = Array.make !cnt 0 in
        let j = ref 0 in
        for i = 0 to deg - 1 do
          let r = rank nbrs.(i) in
          if r >= 0 then begin
            out.(!j) <- r;
            incr j
          end
        done;
        out)
      back
  in
  let m = Array.fold_left (fun acc a -> acc + Array.length a) 0 adj / 2 in
  ({ n = k; adj; m }, back)

let disjoint_union g h =
  let shift = g.n in
  let adj =
    Array.append (Array.map Array.copy g.adj)
      (Array.map (Array.map (fun v -> v + shift)) h.adj)
  in
  { n = g.n + h.n; adj; m = g.m + h.m }

let add_edges g new_edges =
  of_edges ~n:g.n (new_edges @ edges g)

let add_vertices g k =
  if k < 0 then invalid "add_vertices: negative count %d" k;
  { n = g.n + k; adj = Array.append g.adj (Array.make k [||]); m = g.m }

let relabel g perm =
  if Array.length perm <> g.n then invalid "relabel: permutation length mismatch";
  let seen = Array.make g.n false in
  Array.iter
    (fun v ->
      check_endpoint g.n v;
      if seen.(v) then invalid "relabel: not a permutation (duplicate %d)" v;
      seen.(v) <- true)
    perm;
  of_edges ~n:g.n (List.map (fun (u, v) -> (perm.(u), perm.(v))) (edges g))

let equal g h = g.n = h.n && g.adj = h.adj

let is_regular g d = fold_vertices (fun v acc -> acc && degree g v = d) g true

let is_cycle g = g.n >= 3 && g.m = g.n && is_regular g 2 && is_connected g

let is_path_graph g =
  g.n >= 1 && g.m = g.n - 1 && is_connected g && max_degree g <= 2

let pp ppf g =
  Format.fprintf ppf "@[<hov 2>graph(n=%d, m=%d:" g.n g.m;
  List.iter (fun (u, v) -> Format.fprintf ppf "@ %d-%d" u v) (edges g);
  Format.fprintf ppf ")@]"
