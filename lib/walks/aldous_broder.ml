module Graph = Cc_graph.Graph
module Tree = Cc_graph.Tree

let sample g prng ~start =
  let n = Graph.n g in
  if not (Graph.is_connected g) then
    invalid_arg "Aldous_broder.sample: graph must be connected";
  let visited = Array.make n false in
  visited.(start) <- true;
  let remaining = ref (n - 1) in
  let current = ref start and steps = ref 0 in
  let tree_edges = ref [] in
  while !remaining > 0 do
    let next = Walk.step g prng !current in
    incr steps;
    if not visited.(next) then begin
      visited.(next) <- true;
      decr remaining;
      tree_edges := (!current, next) :: !tree_edges
    end;
    current := next
  done;
  (Tree.of_edges ~n !tree_edges, !steps)

let sample_tree g prng = fst (sample g prng ~start:0)
