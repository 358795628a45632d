module Graph = Cc_graph.Graph
module Tree = Cc_graph.Tree
module Topdown = Cc_walks.Topdown

type result = { tree : Tree.t; phases : int; walk_total : int }

(* The graph-only state, its memo included, is a [Plan]: everything there
   is pure compute, so memo hits and misses are indistinguishable to the
   caller except in time, and the prng stream is untouched by caching. *)
type plan = Plan.t

let prepare ?(lazy_walk = true) g =
  if not (Graph.is_connected g) then
    invalid_arg "Sequential.prepare: graph must be connected";
  Plan.create ~lazy_walk g

let draw (plan : plan) prng =
  let g = plan.graph and target_len = plan.target_len in
  let n = Graph.n g in
  Plan.count_draw plan;
  let visited = Array.make n false in
  visited.(0) <- true;
  let remaining = ref (n - 1) in
  let tree_edges = ref [] in
  let current = ref 0 in
  let phases = ref 0 in
  let walk_total = ref 0 in
  let claim u v =
    visited.(v) <- true;
    decr remaining;
    tree_edges := (u, v) :: !tree_edges
  in
  (* Claim the first visits of [walk], a walk in G's vertices, each entry
     edge as [entry prev v] picks it. *)
  let claim_walk entry walk =
    walk_total := !walk_total + Array.length walk - 1;
    Array.iteri
      (fun idx v ->
        if idx > 0 && not visited.(v) then claim (entry walk.(idx - 1) v) v)
      walk;
    current := walk.(Array.length walk - 1)
  in
  while !remaining > 0 do
    incr phases;
    Cc_obs.Metrics.incr "sampler.phases";
    if !phases = 1 then
      claim_walk
        (fun prev _ -> prev)
        (Topdown.sample_truncated_matrix prng ~table:plan.table1 ~start:0
           ~target_len ~rho:plan.rho)
    else begin
      let ph = Plan.phase plan ~visited ~current:!current in
      let entry prev v = fst (Plan.first_visit plan ph prng ~prev v) in
      let s = ph.s in
      if Array.length s = 2 then
        claim_walk entry [| !current; s.(1 - ph.start) |]
      else
        claim_walk entry
          (Array.map (fun i -> s.(i))
             (Topdown.sample_truncated_matrix prng
                ~table:(Lazy.force ph.table) ~start:ph.start ~target_len
                ~rho:(min plan.rho (Array.length s))))
    end
  done;
  let tree = Tree.of_edges ~n !tree_edges in
  assert (Tree.is_spanning_tree g tree);
  { tree; phases = !phases; walk_total = !walk_total }

let sample ?(lazy_walk = true) g prng =
  if not (Graph.is_connected g) then
    invalid_arg "Sequential.sample: graph must be connected";
  draw (prepare ~lazy_walk g) prng

let sample_tree g prng = (sample g prng).tree
