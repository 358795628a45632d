type t = { n : int; sorted : (int * int) array }

let of_edges ~n edge_list =
  let canon =
    List.map (fun (u, v) -> if u < v then (u, v) else (v, u)) edge_list
  in
  let arr = Array.of_list canon in
  Array.sort compare arr;
  { n; sorted = arr }

let edges t = Array.to_list t.sorted
let mem t u v =
  let key = if u < v then (u, v) else (v, u) in
  let lo = ref 0 and hi = ref (Array.length t.sorted - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = compare t.sorted.(mid) key in
    if c = 0 then found := true
    else if c < 0 then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let compare_trees a b = compare (a.n, a.sorted) (b.n, b.sorted)
let canonical_key t =
  let buf = Buffer.create (8 * Array.length t.sorted) in
  Array.iter (fun (u, v) -> Buffer.add_string buf (Printf.sprintf "%d-%d;" u v)) t.sorted;
  Buffer.contents buf

let is_spanning_tree g t =
  let n = Graph.n g in
  t.n = n
  && Array.length t.sorted = n - 1
  && Array.for_all (fun (u, v) -> Graph.has_edge g u v) t.sorted
  &&
  (* n-1 edges + connected => tree. Union-find connectivity. *)
  let parent = Array.init n (fun i -> i) in
  let rec find i = if parent.(i) = i then i else (parent.(i) <- find parent.(i); parent.(i)) in
  let acyclic = ref true in
  Array.iter
    (fun (u, v) ->
      let ru = find u and rv = find v in
      if ru = rv then acyclic := false else parent.(ru) <- rv)
    t.sorted;
  !acyclic

let weight g t =
  Array.fold_left (fun acc (u, v) -> acc *. Graph.edge_weight g u v) 1.0 t.sorted

let log_count g =
  Cc_linalg.Gth.log_det (snd (Graph.eliminate g ~keep:[| Graph.n g - 1 |]))

let count g =
  let lc = log_count g in
  if lc = neg_infinity then 0.0 else Float.exp lc

let enumerate ?(limit = 200_000) g =
  let n = Graph.n g in
  let all_edges = Array.of_list (Graph.edges g) in
  let m = Array.length all_edges in
  let need = n - 1 in
  let results = ref [] in
  let count_found = ref 0 in
  (* Backtracking with union-find over a chosen prefix; choose edges in index
     order so each subset is produced once. State is copied per branch (m is
     small when enumeration is feasible). *)
  let rec go idx chosen parent taken =
    if taken = need then begin
      incr count_found;
      if !count_found > limit then
        invalid_arg "Tree.enumerate: spanning tree count exceeds limit";
      results := of_edges ~n (List.rev chosen) :: !results
    end
    else if idx < m && m - idx >= need - taken then begin
      let u, v, _ = all_edges.(idx) in
      let rec find p i = if p.(i) = i then i else find p p.(i) in
      let ru = find parent u and rv = find parent v in
      if ru <> rv then begin
        let parent' = Array.copy parent in
        parent'.(ru) <- rv;
        go (idx + 1) ((u, v) :: chosen) parent' (taken + 1)
      end;
      go (idx + 1) chosen parent taken
    end
  in
  go 0 [] (Array.init n (fun i -> i)) 0;
  !results

let index ?limit g =
  let trees = Array.of_list (enumerate ?limit g) in
  Array.sort compare_trees trees;
  let table = Hashtbl.create (Array.length trees) in
  Array.iteri (fun i t -> Hashtbl.add table (canonical_key t) i) trees;
  let lookup t =
    match Hashtbl.find_opt table (canonical_key t) with
    | Some i -> i
    | None -> invalid_arg "Tree.index: tree is not a spanning tree of this graph"
  in
  (trees, lookup)

let weighted_distribution g trees =
  Cc_util.Dist.of_weights (Array.map (fun t -> weight g t) trees)
