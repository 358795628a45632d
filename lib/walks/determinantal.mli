(** Exact spanning-tree sampling by the determinantal chain rule.

    The uniform (weighted) spanning-tree distribution is determinantal: an
    edge e belongs to the random tree with probability
    [w_e * effective_resistance(e)] (its leverage score), and conditioning on
    inclusion/exclusion corresponds to contracting/deleting the edge. This
    module samples trees exactly by walking the edges in a fixed order and
    flipping each conditional coin — a third exact reference sampler that,
    unlike enumeration, scales to mid-size graphs, so the distributed
    sampler's {e edge marginals} can be validated where the full tree
    distribution is out of reach (test suite + bench A2).

    {!marginals} factors one grounded Laplacian minor per vertex (see
    {!Cc_graph.Graph.edge_resistances}). {!chain_rule} builds each
    conditional's grounded minor in place, with no graph rebuilt, and
    solves it once: O(m n^3) in all, fine for the simulator's n <= a few
    hundred. *)

(** [leverage g u v] = [w(u,v) * R_eff(u,v)] — the probability that edge
    (u,v) appears in the random spanning tree.
    @raise Invalid_argument if the edge does not exist. *)
val leverage : Cc_graph.Graph.t -> int -> int -> float

(** [marginals g] lists every edge with its leverage score. The scores of a
    connected graph sum to n - 1 (Foster's theorem) — checked in tests. *)
val marginals : Cc_graph.Graph.t -> ((int * int) * float) list

(** [chain_rule g ~coin] walks the edges of a connected [g] in
    {!Cc_graph.Graph.edges} order. An edge whose endpoints the edges kept
    so far already join is dropped without a coin. Every other edge gets
    [p], its leverage in [g] with the kept edges contracted and the dropped
    ones deleted, and is kept iff [coin p]. The kept edges form the tree.
    Each [p] is computed with the same floats, in the same order, as by
    contracting into a fresh {!Cc_graph.Graph.t} and calling
    {!Cc_graph.Graph.effective_resistance}.
    @raise Invalid_argument if [g] is disconnected, or with
    {!Cc_graph.Graph.of_edges}'s weight message if merged parallel weights
    overflow. *)
val chain_rule : Cc_graph.Graph.t -> coin:(float -> bool) -> Cc_graph.Tree.t

(** [sample_tree g prng] draws an exactly (weighted-)uniform spanning
    tree: {!chain_rule} with the coin [Prng.float prng 1.0 < p].
    @raise Invalid_argument if [g] is disconnected. *)
val sample_tree : Cc_graph.Graph.t -> Cc_util.Prng.t -> Cc_graph.Tree.t

(** [empirical_marginals ~trials sampler g] estimates edge marginals of any
    tree sampler, keyed like [marginals] — the comparison helper used to
    validate samplers at sizes where tree enumeration is infeasible. *)
val empirical_marginals :
  trials:int ->
  (Cc_graph.Graph.t -> Cc_graph.Tree.t) ->
  Cc_graph.Graph.t ->
  ((int * int) * float) list

(** [max_marginal_gap g ~trials sampler] = the l-infinity distance between
    [marginals g] and the sampler's empirical marginals. *)
val max_marginal_gap :
  Cc_graph.Graph.t ->
  trials:int ->
  (Cc_graph.Graph.t -> Cc_graph.Tree.t) ->
  float
