module Graph = Cc_graph.Graph
module Tree = Cc_graph.Tree

let sample g prng ~root =
  let n = Graph.n g in
  if not (Graph.is_connected g) then
    invalid_arg "Wilson.sample: graph must be connected";
  let in_tree = Array.make n false in
  in_tree.(root) <- true;
  (* next.(v) is the successor of v along the current loop-erased path; the
     cycle-popping view keeps only the last exit from each vertex. *)
  let next = Array.make n (-1) in
  let steps = ref 0 in
  for v = 0 to n - 1 do
    if not in_tree.(v) then begin
      (* Random walk from v until the tree is hit, recording last exits. *)
      let u = ref v in
      while not in_tree.(!u) do
        let w = Walk.step g prng !u in
        incr steps;
        next.(!u) <- w;
        u := w
      done;
      (* Retrace the loop-erased path and add it to the tree. *)
      let u = ref v in
      while not in_tree.(!u) do
        in_tree.(!u) <- true;
        u := next.(!u)
      done
    end
  done;
  let tree_edges = ref [] in
  for v = 0 to n - 1 do
    if v <> root && next.(v) >= 0 && in_tree.(v) then
      tree_edges := (v, next.(v)) :: !tree_edges
  done;
  (Tree.of_edges ~n !tree_edges, !steps)

let sample_tree g prng = fst (sample g prng ~root:0)

let sample_biased g prng =
  match Graph.edges g with
  | [] -> invalid_arg "Wilson.sample_biased: graph has no edges"
  | (u0, v0, _) :: _ ->
      (* Rejection against the lexicographically least edge: redraw (up to
         three times) whenever the tree contains it, deflating its marginal
         from p to roughly p^4 — far outside any honest gate. *)
      let rec go k =
        let tree, _ = sample g prng ~root:0 in
        if k = 0 || not (Tree.mem tree u0 v0) then tree else go (k - 1)
      in
      go 3
