(** The down-up (basis-exchange) Markov chain on spanning trees.

    The paper's conclusion points to the MCMC approach of Anari, Liu, Oveis
    Gharan, Vinzant and Vuong [3] — the up-down walk on the spanning-tree
    matroid — as the natural alternative route to distributed sampling. This
    module implements the sequential chain as an extension/baseline:

    one step from a tree T picks a uniformly random tree edge e, removes it
    (splitting T into components A and B), and re-inserts an edge drawn from
    the cut (A,B) with probability proportional to its weight. The chain's
    stationary distribution is exactly the (weighted) uniform distribution
    over spanning trees, and by [3] it mixes in O(m log m) steps.

    Used by bench A2 (samplers ablation) and cross-validated against
    Aldous-Broder/Wilson/Matrix-Tree in the test suite. *)

(** [sample g prng ~steps ~init] runs the chain for [steps] exchanges from
    [init] (which must be a spanning tree of [g]). *)
val sample :
  Cc_graph.Graph.t ->
  Cc_util.Prng.t ->
  steps:int ->
  init:Cc_graph.Tree.t ->
  Cc_graph.Tree.t

(** [sample_tree g prng] starts from a (deterministic) BFS tree and runs the
    default budget of ceil(4 m log(m + 1)) steps. *)
val sample_tree : Cc_graph.Graph.t -> Cc_util.Prng.t -> Cc_graph.Tree.t

(** [default_steps g] is the budget [sample_tree] uses. *)
val default_steps : Cc_graph.Graph.t -> int

(** [bfs_tree g] is the deterministic breadth-first spanning tree from
    vertex 0 — the chain's canonical starting state. *)
val bfs_tree : Cc_graph.Graph.t -> Cc_graph.Tree.t
