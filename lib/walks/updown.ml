module Graph = Cc_graph.Graph
module Tree = Cc_graph.Tree
module Prng = Cc_util.Prng
module Dist = Cc_util.Dist

let bfs_tree g =
  let n = Graph.n g in
  if not (Graph.is_connected g) then invalid_arg "Updown.bfs_tree: disconnected";
  let visited = Array.make n false in
  visited.(0) <- true;
  let queue = Queue.create () in
  Queue.add 0 queue;
  let edges = ref [] in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Array.iter
      (fun (v, _) ->
        if not visited.(v) then begin
          visited.(v) <- true;
          edges := (u, v) :: !edges;
          Queue.add v queue
        end)
      (Graph.neighbors g u)
  done;
  Tree.of_edges ~n !edges

(* Component labels of the forest T - e. *)
let split_components g tree (eu, ev) =
  let n = Graph.n g in
  let label = Array.make n (-1) in
  let bfs start mark =
    let queue = Queue.create () in
    Queue.add start queue;
    label.(start) <- mark;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      Array.iter
        (fun (v, _) ->
          let is_removed_edge =
            (u = eu && v = ev) || (u = ev && v = eu)
          in
          if (not is_removed_edge) && label.(v) < 0 && Tree.mem tree u v then begin
            label.(v) <- mark;
            Queue.add v queue
          end)
        (Graph.neighbors g u)
    done
  in
  bfs eu 0;
  bfs ev 1;
  label

let step g prng tree =
  let edges = Array.of_list (Tree.edges tree) in
  let removed = Prng.choose prng edges in
  let label = split_components g tree removed in
  (* Cut edges of G between the two components, weighted. *)
  let cut = ref [] in
  List.iter
    (fun (u, v, w) -> if label.(u) <> label.(v) then cut := (u, v, w) :: !cut)
    (Graph.edges g);
  let cut = Array.of_list !cut in
  let weights = Array.map (fun (_, _, w) -> w) cut in
  let u, v, _ = cut.(Dist.sample_weights weights prng) in
  let kept = List.filter (fun e -> e <> removed) (Tree.edges tree) in
  Tree.of_edges ~n:(Graph.n g) ((u, v) :: kept)

let sample g prng ~steps ~init =
  if not (Tree.is_spanning_tree g init) then
    invalid_arg "Updown.sample: init is not a spanning tree";
  let t = ref init in
  for _ = 1 to steps do
    t := step g prng !t
  done;
  !t

let default_steps g =
  let m = Graph.num_edges g in
  int_of_float (Float.ceil (4.0 *. float_of_int m *. Float.log (float_of_int (m + 1))))

let sample_tree g prng = sample g prng ~steps:(default_steps g) ~init:(bfs_tree g)
